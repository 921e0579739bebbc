package service_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"introspect/internal/service"
	"introspect/internal/suite"
)

// BenchmarkAnalyzeHit times a memory cache hit on jython, the largest
// suite program at about 1 MB of IR text, through the HTTP handler:
// decode, cache lookup and encode, as ptad serves a re-asked key. Set-up
// solves insens for the nine suite programs and reports retained-MiB,
// the live heap of the warmed service after a GC.
func BenchmarkAnalyzeHit(b *testing.B) {
	svc := service.MustNew(service.Config{Workers: 2})
	h := svc.Handler()
	post := func(name, src, want string) {
		q := url.Values{"lang": {"ir"}, "name": {name}, "spec": {"insens"}}
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze?"+q.Encode(), strings.NewReader(src))
		req.Header.Set("Content-Type", "text/plain")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache":"`+want+`"`)) {
			b.Fatalf("%s insens: status %d, want cache %s", name, rec.Code, want)
		}
	}
	var jython string
	for _, name := range suite.Names() {
		var sb strings.Builder
		if err := suite.Profiles()[name].Build().WriteText(&sb); err != nil {
			b.Fatal(err)
		}
		if name == "jython" {
			jython = sb.String()
		}
		post(name, sb.String(), "miss")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("jython", jython, "hit")
	}
	// ResetTimer drops reported metrics, so this one is reported last.
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MiB")
}
