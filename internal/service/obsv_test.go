package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/obs"
	"introspect/internal/service"
)

// syncBuffer is a mutex-guarded log sink: the server goroutines write
// access-log lines while the test goroutine reads them.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// logLines parses every JSON line the logger emitted.
func logLines(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// waitForLogLine polls until a log line satisfying pred appears — the
// middleware writes its line after the response body is handed to the
// HTTP server, so the client can hold the response a beat before the
// line lands.
func waitForLogLine(t *testing.T, buf *syncBuffer, what string, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, m := range logLines(t, buf) {
			if pred(m) {
				return m
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line matching %s; log:\n%s", what, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestIDAndAccessLog: every /v1 response carries a request ID
// header; a sane client-supplied ID is honored, a hostile one is
// replaced; and the access-log line carries the ID plus the fields the
// inner layers annotated (spec, program, cache status).
func TestRequestIDAndAccessLog(t *testing.T) {
	var buf syncBuffer
	svc := service.MustNew(service.Config{Workers: 1, Logger: obs.NewLogger(&buf)})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	src := holderMJ(t)

	resp, err := http.Post(srv.URL+"/v1/analyze?spec=insens&name=holder", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(service.RequestIDHeader)
	if id == "" {
		t.Fatal("response is missing the X-Ptad-Request-Id header")
	}
	line := waitForLogLine(t, &buf, "the solve request", func(m map[string]any) bool { return m["id"] == id })
	if line["spec"] != "insens" || line["program"] != "holder" || line["cache"] != "miss" {
		t.Errorf("access log line = %v, want spec=insens program=holder cache=miss", line)
	}
	if line["path"] != "/v1/analyze" || line["status"] != float64(200) {
		t.Errorf("access log line = %v, want path=/v1/analyze status=200", line)
	}

	// Client-supplied IDs are honored (after sanitizing)...
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/analyze?spec=insens&name=holder", strings.NewReader(src))
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(service.RequestIDHeader, "my-trace.001")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(service.RequestIDHeader); got != "my-trace.001" {
		t.Errorf("client ID not honored: got %q", got)
	}
	hitLine := waitForLogLine(t, &buf, "the cache hit", func(m map[string]any) bool { return m["id"] == "my-trace.001" })
	if hitLine["cache"] != "hit" {
		t.Errorf("repeat request log line cache = %v, want hit", hitLine["cache"])
	}

	// ...hostile ones are replaced.
	req3, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req3.Header.Set(service.RequestIDHeader, "bad id with spaces")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get(service.RequestIDHeader); got == "" || strings.Contains(got, "\n") || strings.Contains(got, " ") {
		t.Errorf("hostile ID passed through: %q", got)
	}
}

// TestDecisionsExposure: the introspection decision audit rides the
// response only when asked for, is identical on cache hits (solves
// always record it onto the cached document), and aggregates into the
// metrics snapshot.
func TestDecisionsExposure(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	src := holderMJ(t)
	base := service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: "2objH-IntroB"}}

	plain := analyzeOne(t, svc, base)
	if plain.Decisions != nil {
		t.Errorf("decisions returned without being requested: %d entries", len(plain.Decisions))
	}

	audited := base
	audited.Decisions = true
	doc := analyzeOne(t, svc, audited)
	if doc.Cache != "hit" {
		t.Fatalf("cache = %q, want hit (Decisions must not change the cache key)", doc.Cache)
	}
	if len(doc.Decisions) == 0 {
		t.Fatal("no decisions on an introspective spec")
	}
	for _, d := range doc.Decisions {
		if d.Verdict != "refine" && d.Verdict != "demote" {
			t.Errorf("decision verdict %q", d.Verdict)
		}
		if d.Metric == "" || d.Site == "" || d.Kind == "" {
			t.Errorf("incomplete decision record: %+v", d)
		}
	}

	// Non-introspective specs have no selection stage and no decisions.
	insens := service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: "insens"}, Decisions: true}
	if doc := analyzeOne(t, svc, insens); len(doc.Decisions) != 0 {
		t.Errorf("insens run carries %d decisions", len(doc.Decisions))
	}

	m := svc.Metrics()
	if len(m.Decisions) == 0 {
		t.Error("metrics snapshot has no decision aggregates after an introspective solve")
	}
	var total uint64
	for _, v := range m.Decisions {
		total += v
	}
	if total != uint64(len(doc.Decisions)) {
		t.Errorf("metrics count %d decisions, response carries %d", total, len(doc.Decisions))
	}
}

// TestMemoryTelemetry: solves feed the per-stage allocation counters
// and the memory gauges surface in the snapshot.
func TestMemoryTelemetry(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	analyzeOne(t, svc, service.Request{Name: "holder", Source: holderMJ(t), Job: analysis.Job{Spec: "2objH-IntroA"}})
	m := svc.Metrics()
	if m.Mem.StageAllocBytes["main-pass"] == 0 {
		t.Errorf("no main-pass allocation recorded: %v", m.Mem.StageAllocBytes)
	}
	if m.Mem.HeapInuseBytes == 0 {
		t.Error("heap-in-use gauge is zero")
	}
	if m.UptimeMS < 0 || m.Goroutines <= 0 {
		t.Errorf("uptime=%d goroutines=%d", m.UptimeMS, m.Goroutines)
	}
}

// stallWriter signals on its first Write, then blocks every Write
// until release is closed: a /metrics client that stopped reading.
type stallWriter struct {
	once             sync.Once
	started, release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return len(p), nil
}

// TestBlockedMetricsWriterDoesNotStallRequests: the exposition is
// written without holding the metrics lock, so a scraper that stops
// reading cannot stall the requests that update the counters.
func TestBlockedMetricsWriterDoesNotStallRequests(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	src := holderMJ(t)
	w := &stallWriter{started: make(chan struct{}), release: make(chan struct{})}
	written := make(chan error, 1)
	go func() { written <- svc.WritePrometheus(w) }()
	<-w.started

	analyzed := make(chan *service.Error, 1)
	go func() {
		_, serr := svc.Analyze(context.Background(), service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: "insens"}})
		analyzed <- serr
	}()
	stalled := false
	select {
	case serr := <-analyzed:
		if serr != nil {
			t.Error(serr)
		}
	case <-time.After(5 * time.Second):
		stalled = true
		t.Error("Analyze stalled behind a blocked /metrics writer")
	}
	close(w.release)
	if err := <-written; err != nil {
		t.Error(err)
	}
	if stalled {
		<-analyzed // released together with the writer
	}
}

// TestTraceOnResponse: trace=1 attaches a Chrome trace document
// covering this request's handling — stage spans when it solved, just
// the lookup when it hit — without disturbing the cached document.
func TestTraceOnResponse(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	src := holderMJ(t)

	post := func(t *testing.T, query string) (*analysis.RunJSON, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/analyze?spec=insens&name=holder&stream=0"+query, "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var doc analysis.RunJSON
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		return &doc, resp.Header.Get(service.RequestIDHeader)
	}

	doc, id := post(t, "&trace=1")
	if doc.Trace == nil || len(doc.Trace.TraceEvents) == 0 {
		t.Fatal("trace=1 returned no trace document")
	}
	var sawRequest, sawMain bool
	for _, ev := range doc.Trace.TraceEvents {
		if ev.Name == "request" && ev.Phase == "X" {
			sawRequest = true
			if ev.Args["trace_id"] != id {
				t.Errorf("request span trace_id = %v, want the request ID %q", ev.Args["trace_id"], id)
			}
		}
		if ev.Name == "main-pass" {
			sawMain = true
		}
	}
	if !sawRequest || !sawMain {
		t.Errorf("trace spans: request=%v main-pass=%v, want both on a cold solve", sawRequest, sawMain)
	}

	// The hit's trace covers the lookup, not the (never re-run) solve.
	hit, _ := post(t, "&trace=1")
	if hit.Cache != "hit" {
		t.Fatalf("cache = %q, want hit (Trace must not change the cache key)", hit.Cache)
	}
	if hit.Trace == nil {
		t.Fatal("cache hit with trace=1 returned no trace")
	}
	for _, ev := range hit.Trace.TraceEvents {
		if ev.Name == "main-pass" {
			t.Error("cache hit's trace contains a solve span")
		}
	}

	// And an untraced repeat stays clean: the cached document was never
	// mutated by the traced requests.
	plain, _ := post(t, "")
	if plain.Trace != nil {
		t.Error("untraced request carries a trace")
	}
}

// TestStreamDecisionsEvent: a streaming audited solve emits the
// "decisions" event before the terminal result, and the result
// document carries the same log.
func TestStreamDecisionsEvent(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/analyze?spec=2objH-IntroB&stream=1&decisions=1&name=holder",
		"text/plain", strings.NewReader(holderMJ(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sawDecisions, sawResult bool
	var resultDecisions int
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Event     string            `json:"event"`
			Decisions []json.RawMessage `json:"decisions"`
			Result    *analysis.RunJSON `json:"result"`
		}
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch ev.Event {
		case "decisions":
			sawDecisions = true
			if len(ev.Decisions) == 0 {
				t.Error("decisions event carries no decisions")
			}
		case "result":
			sawResult = true
			resultDecisions = len(ev.Result.Decisions)
		}
	}
	if !sawDecisions || !sawResult {
		t.Fatalf("stream events: decisions=%v result=%v, want both", sawDecisions, sawResult)
	}
	if resultDecisions == 0 {
		t.Error("terminal result carries no decisions")
	}
}

// TestQueueWaitInContext: the solve's slot wait lands on the owning
// request's log line (queue_ms), which requires the detached solve
// context to preserve request values.
func TestQueueWaitInContext(t *testing.T) {
	// Directly exercise the detached-context value path: analyze must
	// see the reqInfo through context.WithoutCancel.
	svc := service.MustNew(service.Config{Workers: 1})
	doc, serr := svc.Analyze(context.Background(), service.Request{
		Name: "holder", Source: holderMJ(t), Job: analysis.Job{Spec: "insens"},
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if doc.Cache != "miss" {
		t.Fatalf("cache = %q", doc.Cache)
	}
}
