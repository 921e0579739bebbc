package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/service"
	"introspect/internal/suite"
	ptav1 "introspect/pta/v1"
)

func jythonIR(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := suite.MustLoad("jython").WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// readStream consumes an NDJSON response into events, failing on
// malformed lines or a non-terminal ending.
func readStream(t *testing.T, resp *http.Response) []ptav1.StreamEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []ptav1.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		var ev ptav1.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, sc.Text())
		}
		if ev.Schema != "pta/v1" {
			t.Fatalf("event schema = %q", ev.Schema)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}
	last := events[len(events)-1]
	if last.Event != ptav1.EventResult && last.Event != ptav1.EventError {
		t.Fatalf("stream ended on %q, want a terminal event", last.Event)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Event == ptav1.EventResult || ev.Event == ptav1.EventError {
			t.Fatalf("terminal %q event before the end of the stream", ev.Event)
		}
	}
	return events
}

// TestStreamDeliversProgress is the streaming acceptance test: a long
// solve streamed over HTTP delivers at least one solver snapshot
// before the terminal result, and the terminal result is the same
// document a non-streaming request produces.
func TestStreamDeliversProgress(t *testing.T) {
	src := jythonIR(t)
	// A dense snapshot interval makes heartbeats deterministic: insens
	// over jython does far more than 4096 work units.
	svc := service.MustNew(service.Config{Workers: 1, SnapshotEvery: 4096})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/analyze?lang=ir&spec=insens&budget=-1&name=jython&stream=1",
		"text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	events := readStream(t, resp)

	var stages, snapshots int
	for _, ev := range events[:len(events)-1] {
		switch ev.Event {
		case ptav1.EventStage:
			stages++
		case ptav1.EventSnapshot:
			snapshots++
			if ev.Snapshot == nil || ev.Snapshot.Work == 0 {
				t.Errorf("snapshot event without a live snapshot: %+v", ev)
			}
		}
	}
	if stages == 0 {
		t.Error("no stage events before the terminal result")
	}
	if snapshots == 0 {
		t.Error("no snapshot events before the terminal result (the acceptance property)")
	}

	last := events[len(events)-1]
	if last.Event != ptav1.EventResult || last.Result == nil || !last.Result.Complete {
		t.Fatalf("terminal event = %+v, want a complete result", last)
	}

	ref, serr := service.MustNew(service.Config{Workers: 1}).Analyze(context.Background(), service.Request{
		Lang: "ir", Name: "jython", Source: src,
		Job: analysis.Job{Spec: "insens"}, Budget: -1,
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if canonical(t, last.Result) != canonical(t, ref) {
		t.Error("streamed result diverges from the non-streamed solve")
	}
	if m := svc.Metrics(); m.Streams != 1 {
		t.Errorf("streams metric = %d, want 1", m.Streams)
	}
}

// TestStreamCacheHit: a cache hit streams degenerately — no progress
// events (nothing solved), just the terminal result.
func TestStreamCacheHit(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	src := holderMJ(t)

	if _, serr := svc.Analyze(context.Background(), service.Request{
		Name: "holder", Source: src, Job: analysis.Job{Spec: "insens"},
	}); serr != nil {
		t.Fatal(serr)
	}

	resp, err := http.Post(srv.URL+"/v1/analyze?spec=insens&name=holder&stream=1",
		"text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	events := readStream(t, resp)
	if len(events) != 1 {
		t.Errorf("cache-hit stream = %d events, want 1 (terminal only)", len(events))
	}
	last := events[len(events)-1]
	if last.Event != ptav1.EventResult || last.Result == nil || last.Result.Cache != "hit" {
		t.Errorf("terminal event = %+v, want a cache-hit result", last)
	}
}

// TestStreamGET: the curl-friendly form — GET with ?source= streams by
// default, and trace=1 is honored on a stream as on a plain response.
func TestStreamGET(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	q := url.Values{
		"source": {"class Main { static void main() { Main m; m = new Main(); } }"},
		"spec":   {"insens"},
		"name":   {"tiny"},
	}
	resp, err := http.Get(srv.URL + "/v1/analyze?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	events := readStream(t, resp)
	last := events[len(events)-1]
	if last.Event != ptav1.EventResult || last.Result == nil || !last.Result.Complete {
		t.Errorf("terminal event = %+v", last)
	}

	// stream=false opts the GET form out: a plain JSON document.
	q.Set("stream", "false")
	resp2, err := http.Get(srv.URL + "/v1/analyze?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("stream=false Content-Type = %q, want application/json", ct)
	}
	var doc analysis.RunJSON
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "pta/v1" || !doc.Complete {
		t.Errorf("stream=false doc = schema %q complete %v", doc.Schema, doc.Complete)
	}

	// A streamed trace=1 request gets its trace on the terminal result:
	// stage spans when it solved, only the request span on a hit, and
	// nothing on an untraced repeat (the cached document stays clean).
	// The cold request is a GET, the repeats a raw POST with stream=1.
	spans := func(t *testing.T, resp *http.Response) (map[string]bool, *analysis.RunJSON) {
		t.Helper()
		id := resp.Header.Get(service.RequestIDHeader)
		events := readStream(t, resp)
		res := events[len(events)-1].Result
		if res == nil {
			t.Fatalf("terminal event = %+v", events[len(events)-1])
		}
		if res.Trace == nil {
			return nil, res
		}
		names := map[string]bool{}
		for _, ev := range res.Trace.TraceEvents {
			if ev.Phase != "X" {
				continue
			}
			names[ev.Name] = true
			if ev.Args["trace_id"] != id {
				t.Errorf("span %q trace_id = %v, want the request ID %q", ev.Name, ev.Args["trace_id"], id)
			}
		}
		return names, res
	}
	q.Del("stream")
	q.Set("spec", "2objH-IntroA")
	q.Set("trace", "1")
	resp3, err := http.Get(srv.URL + "/v1/analyze?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	cold, res := spans(t, resp3)
	if res.Cache != "miss" || !cold["request"] || !cold["main-pass"] {
		t.Errorf("cold traced stream: cache=%q spans=%v, want a miss with request and main-pass spans", res.Cache, cold)
	}
	post := func(query string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/analyze?spec=2objH-IntroA&name=tiny&stream=1"+query,
			"text/plain", strings.NewReader(q.Get("source")))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	hit, res := spans(t, post("&trace=1"))
	if res.Cache != "hit" || !hit["request"] || hit["main-pass"] {
		t.Errorf("traced stream hit: cache=%q spans=%v, want a hit with only the request span", res.Cache, hit)
	}
	if plain, _ := spans(t, post("")); plain != nil {
		t.Errorf("untraced stream carries a trace: %v", plain)
	}
}

// TestStreamErrors covers the two failure surfaces: before the stream
// starts (plain HTTP status) and after (in-band terminal error event).
func TestStreamErrors(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1, SnapshotEvery: 4096})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Validation failures preempt the stream: a real 400, not a 200
	// with an error event.
	resp, err := http.Post(srv.URL+"/v1/analyze?spec=definitely-not&stream=1",
		"text/plain", strings.NewReader("class Main { static void main() {} }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status = %d, want 400", resp.StatusCode)
	}
	var env ptav1.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Code != ptav1.CodeBadRequest {
		t.Errorf("bad spec: envelope = %+v (%v)", env, err)
	}

	// Mid-solve failures arrive in-band: the deadline expires while
	// streaming, the status is already 200, the terminal event is typed.
	resp2, err := http.Post(srv.URL+"/v1/analyze?lang=ir&spec=2objH&budget=-1&deadline_ms=1&stream=1",
		"text/plain", strings.NewReader(jythonIR(t)))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("deadline stream: status = %d, want 200 (error travels in-band)", resp2.StatusCode)
	}
	events := readStream(t, resp2)
	last := events[len(events)-1]
	if last.Event != ptav1.EventError || last.Code != ptav1.CodeDeadline || last.Error == "" {
		t.Errorf("terminal event = %+v, want a deadline error", last)
	}
}
