package service_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

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

// TestOneProgramEntryPerSource: the raw-POST, JSON and GET encodings
// of one program find the same program entry, whichever copy of the
// source text each request decodes. The raw POST solves, the other two
// are hits on its key, and a JSON introspective request injects the
// insensitive result the raw POST solved. The same source under
// another name, or in another language, is another program.
func TestOneProgramEntryPerSource(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	h := svc.Handler()
	src := holderMJ(t)
	send := func(r *http.Request) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var doc analysis.RunJSON
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("not a result document: %v\n%s", err, rec.Body)
			}
		}
		return rec.Code, doc.Cache
	}
	raw := func(query string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze?"+query, strings.NewReader(src))
		r.Header.Set("Content-Type", "text/plain")
		return r
	}
	jsonReq := func(spec string) *http.Request {
		b, err := json.Marshal(src)
		if err != nil {
			t.Fatal(err)
		}
		body := `{"name":"holder","source":` + string(b) + `,"job":{"spec":"` + spec + `"}}`
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		return r
	}
	get := url.Values{"name": {"holder"}, "spec": {"insens"}, "stream": {"0"}, "source": {src}}

	for _, c := range []struct {
		form   string
		r      *http.Request
		code   int
		cache  string
		solves uint64
	}{
		{"raw POST", raw("name=holder&spec=insens"), http.StatusOK, "miss", 1},
		{"JSON", jsonReq("insens"), http.StatusOK, "hit", 1},
		{"GET", httptest.NewRequest(http.MethodGet, "/v1/analyze?"+get.Encode(), nil), http.StatusOK, "hit", 1},
		{"another name", raw("name=other&spec=insens"), http.StatusOK, "miss", 2},
		// Mini-Java source is no IR program: a miss that fails to parse.
		{"another lang", raw("lang=ir&name=holder&spec=insens"), http.StatusBadRequest, "", 2},
		{"JSON IntroA", jsonReq("2objH-IntroA"), http.StatusOK, "miss", 3},
	} {
		code, cache := send(c.r)
		if code != c.code || cache != c.cache {
			t.Errorf("%s: status %d cache %q, want %d %q", c.form, code, cache, c.code, c.cache)
		}
		if m := svc.Metrics(); m.Solves != c.solves {
			t.Errorf("%s: solves = %d, want %d", c.form, m.Solves, c.solves)
		}
	}
	if m := svc.Metrics(); m.Cache.Misses != 4 || m.Cache.Hits != 2 || m.PrePassShared != 1 {
		t.Errorf("misses %d, hits %d, pre_pass_shared %d; want 4, 2 and 1", m.Cache.Misses, m.Cache.Hits, m.PrePassShared)
	}
}

// TestStalledBodyTimesOut sends a raw body over a real socket that
// declares 8 MiB, delivers 13 bytes and then stalls. The body read is
// held to the default request deadline, so the client gets a 400
// bad_request naming the read timeout instead of a connection the
// daemon keeps, with its goroutine and read buffer, for as long as the
// client likes.
func TestStalledBodyTimesOut(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1, DefaultDeadline: 300 * time.Millisecond})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Far above the deadline, so a server that waits forever fails the
	// test instead of hanging it.
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	const head = "POST /v1/analyze?spec=insens HTTP/1.1\r\nHost: ptad\r\n" +
		"Content-Type: text/plain\r\nContent-Length: 8388608\r\n\r\n"
	if _, err := io.WriteString(conn, head+"class Main {\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a stalled body after %v: %v", time.Since(start), err)
	}
	defer resp.Body.Close()
	var body ptav1.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("not an error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Code != ptav1.CodeBadRequest ||
		!strings.HasPrefix(body.Error, "reading body: ") || !strings.Contains(body.Error, "i/o timeout") {
		t.Errorf("status %d, envelope %+v; want 400 bad_request reading body: ... i/o timeout", resp.StatusCode, body)
	}
}
