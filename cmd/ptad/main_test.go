package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/service"
	"introspect/internal/suite"
	"introspect/internal/taint"
	ptav1 "introspect/pta/v1"
)

const demo = "../../examples/ptalint/holder.mj"
const taintDemo = "../../examples/ptalint/taintdemo.mj"

func newServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.MustNew(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeRun(t *testing.T, b []byte) *analysis.RunJSON {
	t.Helper()
	var doc analysis.RunJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("response is not a pta/v1 document: %v\n%s", err, b)
	}
	return &doc
}

// TestAnalyzeCacheHit drives the daemon's main loop over HTTP: a raw
// Mini-Java POST solves ("miss"), a byte-identical repeat is served
// from the cache ("hit") with identical counters, and /metrics shows
// no second solve happened.
func TestAnalyzeCacheHit(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 2})
	src, err := os.ReadFile(demo)
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/v1/analyze?spec=2objH-IntroA&name=holder"

	resp, body := postRaw(t, url, string(src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d: %s", resp.StatusCode, body)
	}
	cold := decodeRun(t, body)
	if cold.Schema != "pta/v1" || cold.Cache != "miss" || !cold.Complete {
		t.Fatalf("first POST: schema=%q cache=%q complete=%v", cold.Schema, cold.Cache, cold.Complete)
	}
	if cold.Analysis != "2objH-IntroA" {
		t.Errorf("analysis = %q", cold.Analysis)
	}

	resp, body = postRaw(t, url, string(src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST: status %d: %s", resp.StatusCode, body)
	}
	hit := decodeRun(t, body)
	if hit.Cache != "hit" {
		t.Fatalf(`second POST cache = %q, want "hit"`, hit.Cache)
	}
	if len(hit.Stages) != len(cold.Stages) || hit.Stages[len(hit.Stages)-1].Work != cold.Stages[len(cold.Stages)-1].Work {
		t.Error("cached document's stages diverge from the cold solve's")
	}

	var m service.MetricsSnapshot
	_, mb := getJSON(t, srv.URL+"/metrics")
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.Solves != 1 {
		t.Errorf("metrics solves = %d after a hit, want 1 (cache did not prevent a solve)", m.Solves)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("metrics cache = %+v, want 1 hit / 1 miss", m.Cache)
	}
}

// TestConcurrentIdenticalRequests is the single-flight gate over HTTP:
// N clients POST the same job concurrently; exactly one solve runs.
func TestConcurrentIdenticalRequests(t *testing.T) {
	srv, svc := newServer(t, service.Config{Workers: 2, QueueDepth: 64})
	src, err := os.ReadFile(demo)
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/v1/analyze?spec=2objH"

	const n = 16
	var wg sync.WaitGroup
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(url, "text/plain", bytes.NewReader(src))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			var doc analysis.RunJSON
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			labels[i] = doc.Cache
		}(i)
	}
	wg.Wait()

	counts := map[string]int{}
	for _, l := range labels {
		counts[l]++
	}
	if m := svc.Metrics(); m.Solves != 1 {
		t.Errorf("solves = %d, want 1; cache labels %v", m.Solves, counts)
	}
	if counts["miss"] != 1 || counts["hit"]+counts["dedup"] != n-1 {
		t.Errorf("cache labels %v, want 1 miss and %d hit/dedup", counts, n-1)
	}
}

// TestOverloadHTTP checks 429 + typed envelope on beyond-queue load:
// one worker, no queue, concurrent distinct jobs.
func TestOverloadHTTP(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 1, QueueDepth: -1})
	var sb strings.Builder
	if err := suite.MustLoad("jython").WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	src := sb.String()

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/analyze?lang=ir&spec=insens&budget=-1&name=jy%d", srv.URL, i)
			resp, err := http.Post(url, "text/plain", strings.NewReader(src))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	var ok, tooMany int
	for i := range statuses {
		switch statuses[i] {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			tooMany++
			var env ptav1.ErrorBody
			if err := json.Unmarshal(bodies[i], &env); err != nil {
				t.Fatalf("429 body is not a pta/v1 envelope: %v\n%s", err, bodies[i])
			}
			if env.Schema != "pta/v1" || env.Code != "overloaded" {
				t.Errorf("429 envelope = %s", bodies[i])
			}
		default:
			t.Errorf("client %d: unexpected status %d: %s", i, statuses[i], bodies[i])
		}
	}
	if ok == 0 || tooMany == 0 {
		t.Errorf("ok=%d too_many=%d; want at least one of each", ok, tooMany)
	}
}

// TestDeadlineHTTP checks 504 + typed envelope when the request's
// deadline expires mid-solve.
func TestDeadlineHTTP(t *testing.T) {
	srv, svc := newServer(t, service.Config{Workers: 1})
	var sb strings.Builder
	if err := suite.MustLoad("jython").WriteText(&sb); err != nil {
		t.Fatal(err)
	}

	resp, body := postRaw(t, srv.URL+"/v1/analyze?lang=ir&spec=2objH&budget=-1&deadline_ms=1", sb.String())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var env ptav1.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("504 body is not a pta/v1 envelope: %v\n%s", err, body)
	}
	if env.Schema != "pta/v1" || ptav1.Code(env.Code) != service.CodeDeadline || env.Error == "" {
		t.Errorf("504 envelope = %s", body)
	}
	if m := svc.Metrics(); m.Timeouts == 0 {
		t.Error("timeouts metric never incremented")
	}
}

// TestBodyDeadlineEndsWithDecode: the body read deadline, the default
// request deadline, ends once the body is decoded, so a request that
// names a longer deadline_ms may wait past it. A GET has no body, and
// net/http reads its idle connection in the background from the start:
// a read deadline left in place would time that read out and cancel
// the request's context, a 504 at the default deadline.
func TestBodyDeadlineEndsWithDecode(t *testing.T) {
	srv, svc := newServer(t, service.Config{Workers: 1, DefaultDeadline: 100 * time.Millisecond})
	src, err := os.ReadFile(demo)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := suite.MustLoad("jython").WriteText(&sb); err != nil {
		t.Fatal(err)
	}

	// jython 2objH holds the one worker until it reaches the default
	// work budget, several times the default deadline.
	done := make(chan *service.Error, 1)
	go func() {
		_, serr := svc.Analyze(context.Background(), service.Request{
			Lang: "ir", Source: sb.String(), Job: analysis.Job{Spec: "2objH"}, DeadlineMS: 60_000,
		})
		done <- serr
	}()
	for svc.Metrics().Queue.InFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	q := url.Values{"source": {string(src)}, "spec": {"insens"}, "stream": {"0"}, "deadline_ms": {"60000"}}
	start := time.Now()
	resp, body := getJSON(t, srv.URL+"/v1/analyze?"+q.Encode())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("queued GET: status %d after %v, want 200: %s", resp.StatusCode, time.Since(start), body)
	}
	if serr := <-done; serr != nil {
		t.Errorf("jython solve: %v", serr)
	}
}

// TestJSONRequestBody exercises the structured request form, including
// serializable thresholds.
func TestJSONRequestBody(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 1})
	src, err := os.ReadFile(demo)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, _ := json.Marshal(service.Request{
		Lang:   "mj",
		Name:   "holder",
		Source: string(src),
		Job: analysis.Job{
			Spec:       "2objH-IntroA",
			Thresholds: &analysis.Thresholds{K: 50, L: 50, M: 100},
		},
		Budget: -1,
	})
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	doc := decodeRun(t, b)
	if doc.Analysis != "2objH-IntroA" || doc.Program != "holder" || !doc.Complete {
		t.Errorf("doc = analysis %q program %q complete %v", doc.Analysis, doc.Program, doc.Complete)
	}

	// Unknown fields are rejected, not ignored: catches client typos.
	resp2, err := http.Post(srv.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"sourcecode":"x","job":{"spec":"insens"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp2.StatusCode)
	}
}

// TestTaintJobHTTP exercises taint configuration over the daemon
// surface: a Job carrying a taint spec solves the instrumented
// program, joins the cache key (same source without taint is a
// different entry), and an invalid spec is rejected with a typed 400
// before admission.
func TestTaintJobHTTP(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 1})
	src, err := os.ReadFile(taintDemo)
	if err != nil {
		t.Fatal(err)
	}
	post := func(job analysis.Job) (*http.Response, []byte) {
		t.Helper()
		reqBody, _ := json.Marshal(service.Request{
			Lang: "mj", Name: "taintdemo", Source: string(src), Job: job, Budget: -1,
		})
		resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	tainted := analysis.Job{Spec: "2objH", Taint: &taint.Spec{
		Sources: []string{"Net.fetch"}, Sinks: []string{"Net.publish"}, Sanitizers: []string{"Net.scrub"},
	}}
	resp, body := post(tainted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("taint job: status %d: %s", resp.StatusCode, body)
	}
	if doc := decodeRun(t, body); doc.Cache != "miss" || !doc.Complete {
		t.Fatalf("taint job: cache=%q complete=%v", doc.Cache, doc.Complete)
	}

	// Identical taint job: cache hit. Same source, no taint: its own
	// entry — the spec is part of the canonical Job and so of the key.
	if _, body = post(tainted); decodeRun(t, body).Cache != "hit" {
		t.Errorf("repeat taint job: cache = %q, want hit", decodeRun(t, body).Cache)
	}
	if _, body = post(analysis.Job{Spec: "2objH"}); decodeRun(t, body).Cache != "miss" {
		t.Errorf("untainted job shares the tainted entry: cache = %q, want miss", decodeRun(t, body).Cache)
	}

	// Sources without sinks is rejected by Job validation → typed 400.
	resp, body = post(analysis.Job{Spec: "2objH", Taint: &taint.Spec{Sources: []string{"Net.fetch"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid taint spec: status %d, want 400: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"bad_request"`)) || !bytes.Contains(body, []byte("taint")) {
		t.Errorf("invalid taint spec: body lacks typed taint error: %s", body)
	}
}

// TestBadRequestHTTP checks the 400 surface over HTTP.
func TestBadRequestHTTP(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 1})
	for _, c := range []struct{ name, url, body string }{
		{"empty body", srv.URL + "/v1/analyze?spec=insens", ""},
		{"bad spec", srv.URL + "/v1/analyze?spec=definitely-not", "class Main { void main() {} }"},
		{"bad lang", srv.URL + "/v1/analyze?lang=cobol", "x"},
		{"parse error", srv.URL + "/v1/analyze?spec=insens", "this is not mini java"},
	} {
		resp, body := postRaw(t, c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte(`"bad_request"`)) {
			t.Errorf("%s: body lacks typed code: %s", c.name, body)
		}
	}
}

// TestSpecsAndHealth covers the discovery and liveness endpoints.
func TestSpecsAndHealth(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 1})

	resp, body := getJSON(t, srv.URL+"/v1/specs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/specs: %d", resp.StatusCode)
	}
	var specs ptav1.SpecsDoc
	if err := json.Unmarshal(body, &specs); err != nil {
		t.Fatal(err)
	}
	if len(specs.Specs) == 0 {
		t.Error("no specs listed")
	}
	var hasIntroA bool
	for _, v := range specs.Variants {
		hasIntroA = hasIntroA || v == "IntroA"
	}
	if !hasIntroA {
		t.Errorf("variants %v missing IntroA", specs.Variants)
	}

	resp, body = getJSON(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("true")) {
		t.Errorf("/healthz: %d %s", resp.StatusCode, body)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}
