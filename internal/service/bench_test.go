package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"introspect/internal/service"
	"introspect/internal/suite"
)

// serve sends one analyze request through h and checks that it is
// answered with the given cache label.
func serve(b *testing.B, h http.Handler, req *http.Request, want string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache":"`+want+`"`)) {
		b.Fatalf("%s: status %d, want cache %s: %.200s", req.URL, rec.Code, want, rec.Body.Bytes())
	}
}

// rawRequest is a raw-source analyze request, as curl users send one.
func rawRequest(name, src, spec string) *http.Request {
	q := url.Values{"lang": {"ir"}, "name": {name}, "spec": {spec}}
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze?"+q.Encode(), strings.NewReader(src))
	req.Header.Set("Content-Type", "text/plain")
	return req
}

// suiteIR returns the textual IR of a suite program.
func suiteIR(b *testing.B, name string) string {
	var sb strings.Builder
	if err := suite.Profiles()[name].Build().WriteText(&sb); err != nil {
		b.Fatal(err)
	}
	return sb.String()
}

// BenchmarkAnalyzeHit times a memory cache hit on jython, the largest
// suite program at about 1 MB of IR text, through the HTTP handler:
// decode, cache lookup and encode, as ptad serves a re-asked key. Set-up
// solves insens for the nine suite programs and reports retained-MiB,
// the live heap of the warmed service after a GC.
func BenchmarkAnalyzeHit(b *testing.B) {
	svc := service.MustNew(service.Config{Workers: 2})
	h := svc.Handler()
	var jython string
	for _, name := range suite.Names() {
		src := suiteIR(b, name)
		if name == "jython" {
			jython = src
		}
		serve(b, h, rawRequest(name, src, "insens"), "miss")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, rawRequest("jython", jython, "insens"), "hit")
	}
	// ResetTimer drops reported metrics, so this one is reported last.
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MiB")
}

// BenchmarkAnalyzeSweep times a threshold-sweep miss through the HTTP
// handler whose refinement ptad has already solved: jython
// 2objH-IntroA with thresholds that select what the defaults select,
// as most of a sweep within 20% of the defaults does. Set-up solves
// jython insens and 2objH-IntroA; each miss then decodes a JSON
// request, runs selection and its audit over the shared pre-pass and
// metrics, reuses the recorded main pass, and encodes the document.
func BenchmarkAnalyzeSweep(b *testing.B) {
	svc := service.MustNew(service.Config{Workers: 2})
	h := svc.Handler()
	jython := suiteIR(b, "jython")
	serve(b, h, rawRequest("jython", jython, "insens"), "miss")
	serve(b, h, rawRequest("jython", jython, "2objH-IntroA"), "miss")
	src, err := json.Marshal(jython)
	if err != nil {
		b.Fatal(err)
	}
	// Distinct thresholds per miss, each within 20% of the defaults.
	sweep := func(i int) *http.Request {
		job := fmt.Sprintf(`,"job":{"spec":"2objH-IntroA","thresholds":{"k":%d,"l":%d,"m":%d}}}`,
			80+i%41, 80+i/41%41, 160+i/1681%81)
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", io.MultiReader(
			strings.NewReader(`{"lang":"ir","name":"jython","source":`), bytes.NewReader(src), strings.NewReader(job)))
		req.Header.Set("Content-Type", "application/json")
		return req
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		serve(b, h, sweep(i), "miss")
	}
	b.ReportMetric(float64(time.Since(start).Milliseconds())/float64(b.N), "ms/miss")
	if m := svc.Metrics(); m.MainPassShared != uint64(b.N) {
		b.Fatalf("main_pass_shared = %d after %d misses; each should reuse the defaults' main pass", m.MainPassShared, b.N)
	}
}
