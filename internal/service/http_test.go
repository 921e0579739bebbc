package service_test

import (
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
