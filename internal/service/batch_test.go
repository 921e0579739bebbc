package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/service"
	ptav1 "introspect/pta/v1"
)

// batchSpecs is the nine-job sweep used across the batch tests: every
// registered spec plus one introspective variant, the shape of a
// precision-table run.
var batchSpecs = []string{"insens", "1call", "2callH", "1obj", "2objH", "2typeH", "2hybH", "cs", "2objH-IntroA"}

func batchJobs() []analysis.Job {
	jobs := make([]analysis.Job, len(batchSpecs))
	for i, spec := range batchSpecs {
		jobs[i] = analysis.Job{Spec: spec}
	}
	return jobs
}

// TestBatchMatchesSequential is the batch-equivalence property: the
// nine-job batch produces, job for job, the same documents as nine
// sequential Analyze calls on a fresh service — batching changes the
// schedule, never the results. It also pins the amortization the
// endpoint exists for: the batch service runs the insensitive pre-pass
// once (the explicit insens job) and the introspective job reuses it.
func TestBatchMatchesSequential(t *testing.T) {
	src := holderMJ(t)

	seq := service.MustNew(service.Config{Workers: 1})
	want := make([]string, len(batchSpecs))
	for i, spec := range batchSpecs {
		doc, serr := seq.Analyze(context.Background(), service.Request{
			Name: "holder", Source: src, Job: analysis.Job{Spec: spec},
		})
		if serr != nil {
			t.Fatalf("sequential %s: %v", spec, serr)
		}
		want[i] = canonical(t, doc)
	}

	svc := service.MustNew(service.Config{Workers: 4})
	resp, serr := svc.Batch(context.Background(), service.BatchRequest{
		Name: "holder", Source: src, Jobs: batchJobs(),
	})
	if serr != nil {
		t.Fatalf("Batch: %v", serr)
	}
	if resp.Schema != ptav1.Schema || resp.Program != "holder" || resp.Jobs != len(batchSpecs) {
		t.Errorf("response header = schema %q program %q jobs %d", resp.Schema, resp.Program, resp.Jobs)
	}
	if len(resp.Results) != len(batchSpecs) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(batchSpecs))
	}
	for i, item := range resp.Results {
		if item.Spec != batchSpecs[i] {
			t.Errorf("item %d: spec = %q, want %q (order must match the request)", i, item.Spec, batchSpecs[i])
		}
		if item.Result == nil {
			t.Errorf("item %d (%s): failed: %s %s", i, batchSpecs[i], item.Code, item.Error)
			continue
		}
		if got := canonical(t, item.Result); got != want[i] {
			t.Errorf("item %d (%s): batch result diverges from sequential solve", i, batchSpecs[i])
		}
	}

	m := svc.Metrics()
	if m.Batches != 1 || m.BatchJobs != uint64(len(batchSpecs)) {
		t.Errorf("batch metrics = %d/%d, want 1/%d", m.Batches, m.BatchJobs, len(batchSpecs))
	}
	if m.Solves != uint64(len(batchSpecs)) {
		t.Errorf("solves = %d, want %d (one per distinct job)", m.Solves, len(batchSpecs))
	}
	// The warm phase makes the amortization deterministic: the insens
	// job solved the shared pre-pass before the fan-out, so the
	// introspective job reused it instead of racing to solve its own.
	if m.PrePassShared != 1 {
		t.Errorf("pre_pass_shared = %d, want 1 (the IntroA job must reuse the insens pass)", m.PrePassShared)
	}
}

// TestBatchPerJobErrors: one bad job fails its own slot, typed; the
// rest of the batch is unharmed.
func TestBatchPerJobErrors(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2})
	resp, serr := svc.Batch(context.Background(), service.BatchRequest{
		Source: holderMJ(t),
		Jobs: []analysis.Job{
			{Spec: "insens"},
			{Spec: "definitely-not-a-spec"},
			{Spec: "2objH"},
		},
	})
	if serr != nil {
		t.Fatalf("Batch: %v", serr)
	}
	if resp.Results[0].Result == nil || resp.Results[2].Result == nil {
		t.Error("valid jobs failed alongside the invalid one")
	}
	bad := resp.Results[1]
	if bad.Result != nil || bad.Code != ptav1.CodeBadRequest || bad.Error == "" {
		t.Errorf("invalid job item = %+v, want typed bad_request", bad)
	}
}

// TestBatchRejections: batch-level errors (as opposed to per-job ones).
func TestBatchRejections(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	for _, c := range []struct {
		name string
		req  service.BatchRequest
	}{
		{"no jobs", service.BatchRequest{Source: "class Main { static void main() {} }"}},
		{"no source", service.BatchRequest{Jobs: batchJobs()}},
		{"too many jobs", service.BatchRequest{
			Source: "class Main { static void main() {} }",
			Jobs:   make([]analysis.Job, service.MaxBatchJobs+1),
		}},
	} {
		_, serr := svc.Batch(context.Background(), c.req)
		if serr == nil || serr.Code != service.CodeBadRequest {
			t.Errorf("%s: error = %v, want bad_request", c.name, serr)
		}
	}
}

// TestBatchHTTP drives POST /v1/batch end to end: the JSON wire shape,
// the single error envelope, and rejection of unknown fields and of
// data after the document.
func TestBatchHTTP(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body, _ := json.Marshal(ptav1.BatchRequest{
		Name: "holder", Source: holderMJ(t),
		Jobs: []analysis.Job{{Spec: "insens"}, {Spec: "2objH"}},
	})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var doc ptav1.BatchResponse
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("not a batch document: %v\n%s", err, b)
	}
	if doc.Schema != "pta/v1" || doc.Jobs != 2 || len(doc.Results) != 2 {
		t.Errorf("batch document = %s", b)
	}
	for i, item := range doc.Results {
		if item.Result == nil || !item.Result.Complete {
			t.Errorf("item %d = %+v", i, item)
		}
	}

	// Errors wear the one envelope.
	resp2, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"jobs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	b2, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp2.StatusCode)
	}
	var env ptav1.ErrorBody
	if err := json.Unmarshal(b2, &env); err != nil || env.Schema != "pta/v1" || env.Code != ptav1.CodeBadRequest {
		t.Errorf("empty batch envelope = %s", b2)
	}

	// Client typos are rejected, not ignored, like /v1/analyze.
	resp3, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"sauce":"x","jobs":[{"spec":"insens"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp3.StatusCode)
	}

	// So is anything after the batch document: a second document or
	// trailing bytes once solved the first document and answered 200.
	for _, tail := range []string{` {"jobs":[{"spec":"2objH"}]}`, "garbage"} {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(append(body[:len(body):len(body)], tail...)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env ptav1.ErrorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &env) != nil || env.Code != ptav1.CodeBadRequest {
			t.Errorf("batch followed by %q: status %d, body %s; want a 400 bad_request envelope", tail, resp.StatusCode, b)
		}
	}

	// So is a per-job workers field.
	resp4, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"source":"x","jobs":[{"spec":"insens","workers":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	b4, _ := io.ReadAll(resp4.Body)
	var env4 ptav1.ErrorBody
	if resp4.StatusCode != http.StatusBadRequest || json.Unmarshal(b4, &env4) != nil || env4.Code != ptav1.CodeBadRequest {
		t.Errorf("job workers field: status %d, body %s; want a 400 bad_request envelope", resp4.StatusCode, b4)
	}
}

// TestWorkersHTTPValidation drives the retired workers knob through
// /v1/analyze on all three encodings: a JSON job field, a raw-POST
// query parameter and a GET parameter are each a 400 with a bad_request
// envelope, never silently ignored, while the same request without the
// knob solves on the serial solver.
func TestWorkersHTTPValidation(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	src := holderMJ(t)
	jsonBody := func(job string) string {
		b, err := json.Marshal(src)
		if err != nil {
			t.Fatal(err)
		}
		return `{"name":"holder","source":` + string(b) + `,"job":` + job + `,"budget":-1}`
	}
	getQuery := url.Values{"name": {"holder"}, "source": {src}, "spec": {"insens"}, "workers": {"2"}}

	for _, c := range []struct {
		name, method, path, ctype, body string
	}{
		{"json field", http.MethodPost, "/v1/analyze", "application/json", jsonBody(`{"spec":"insens","workers":2}`)},
		{"json field zero", http.MethodPost, "/v1/analyze", "application/json", jsonBody(`{"spec":"insens","workers":0}`)},
		{"raw param", http.MethodPost, "/v1/analyze?spec=insens&name=holder&workers=3", "text/plain", src},
		{"raw param malformed", http.MethodPost, "/v1/analyze?spec=insens&name=holder&workers=abc", "text/plain", src},
		{"GET param", http.MethodGet, "/v1/analyze?" + getQuery.Encode(), "", ""},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.ctype != "" {
			req.Header.Set("Content-Type", c.ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", c.name, resp.StatusCode, b)
			continue
		}
		var env ptav1.ErrorBody
		if err := json.Unmarshal(b, &env); err != nil || env.Error == "" {
			t.Errorf("%s: not an error envelope: %s", c.name, b)
		} else if env.Code != ptav1.CodeBadRequest {
			t.Errorf("%s: code = %q, want bad_request", c.name, env.Code)
		}
	}

	// The same JSON request without the knob is accepted and solves.
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(jsonBody(`{"spec":"insens"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("without workers: status = %d, body %s", resp.StatusCode, b)
	}
	var doc analysis.RunJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("without workers: not a result document: %v\n%s", err, b)
	}
	if !doc.Complete {
		t.Error("without workers: solve did not complete")
	}
}
