package ptav1_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"introspect/internal/analysis"
	"introspect/internal/taint"
	ptav1 "introspect/pta/v1"
)

// analyzeReq builds a /v1/analyze request. The query is set verbatim,
// unparsed, so any string reaches the decoder, as FuzzDecodeAnalyze
// needs.
func analyzeReq(method, contentType, query string, body io.Reader) *http.Request {
	r := httptest.NewRequest(method, "/v1/analyze", body)
	r.URL.RawQuery = query
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	return r
}

func jsonReq(body string) *http.Request {
	return analyzeReq(http.MethodPost, "application/json", "", strings.NewReader(body))
}

func rawReq(query, body string) *http.Request {
	return analyzeReq(http.MethodPost, "text/plain", query, strings.NewReader(body))
}

func getReq(query string) *http.Request {
	return analyzeReq(http.MethodGet, "", query, nil)
}

// TestDecodeEncodingsAgree is the defaulting-divergence regression
// test: the same request expressed as a JSON body, as a raw body with
// query parameters, and as a GET must decode to the same
// AnalyzeRequest (streaming flag aside — GET streams by default). The
// JSON-body and query-parameter paths once defaulted the spec
// differently; one decode path makes that impossible.
func TestDecodeEncodingsAgree(t *testing.T) {
	const src = "class Main { static void main() {} }"
	cases := []struct {
		name  string
		json  string
		query string
		want  ptav1.AnalyzeRequest
	}{
		{
			name:  "spec defaulting",
			json:  `{"source":` + quote(src) + `}`,
			query: "",
			want:  ptav1.AnalyzeRequest{Source: src, Job: analysis.Job{Spec: ptav1.DefaultSpec}},
		},
		{
			name:  "explicit job",
			json:  `{"lang":"mj","name":"p","source":` + quote(src) + `,"job":{"spec":"insens"},"budget":-1,"deadline_ms":5,"provenance":true}`,
			query: "lang=mj&name=p&spec=insens&budget=-1&deadline_ms=5&provenance=true",
			want: ptav1.AnalyzeRequest{
				Lang: "mj", Name: "p", Source: src,
				Job:    analysis.Job{Spec: "insens"},
				Budget: -1, DeadlineMS: 5, Provenance: true,
			},
		},
		{
			name:  "taint spec",
			json:  `{"source":` + quote(src) + `,"job":{"spec":"2objH","taint":{"sources":["A.get"],"sinks":["B.put"],"sanitizers":["C.scrub"]}}}`,
			query: "spec=2objH&taint-sources=A.get&taint-sinks=B.put&taint-sanitizers=C.scrub",
			want: ptav1.AnalyzeRequest{
				Source: src,
				Job: analysis.Job{Spec: "2objH", Taint: &taint.Spec{
					Sources: []string{"A.get"}, Sinks: []string{"B.put"}, Sanitizers: []string{"C.scrub"},
				}},
			},
		},
		{
			// Lists that hold only blanks and commas name no pattern,
			// so they are no taint job, not an invalid one.
			name:  "blank taint lists",
			json:  `{"source":` + quote(src) + `,"job":{"spec":"2objH"}}`,
			query: "spec=2objH&taint-sources=%20&taint-sinks=,%20,&taint-sanitizers=",
			want:  ptav1.AnalyzeRequest{Source: src, Job: analysis.Job{Spec: "2objH"}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fromJSON, serr := ptav1.DecodeAnalyze(jsonReq(c.json), 1<<20)
			if serr != nil {
				t.Fatalf("json form: %v", serr)
			}
			fromQuery, serr := ptav1.DecodeAnalyze(rawReq(c.query, src), 1<<20)
			if serr != nil {
				t.Fatalf("query form: %v", serr)
			}
			getQuery := c.query
			if getQuery != "" {
				getQuery += "&"
			}
			getQuery += "source=" + url.QueryEscape(src)
			fromGET, serr := ptav1.DecodeAnalyze(getReq(getQuery), 1<<20)
			if serr != nil {
				t.Fatalf("GET form: %v", serr)
			}

			if !reflect.DeepEqual(fromJSON, c.want) {
				t.Errorf("json form = %+v, want %+v", fromJSON, c.want)
			}
			if !reflect.DeepEqual(fromQuery, c.want) {
				t.Errorf("query form = %+v, want %+v", fromQuery, c.want)
			}
			// GET differs only in the streaming default.
			if !fromGET.Stream {
				t.Error("GET form does not stream by default")
			}
			fromGET.Stream = c.want.Stream
			if !reflect.DeepEqual(fromGET, c.want) {
				t.Errorf("GET form = %+v, want %+v", fromGET, c.want)
			}
		})
	}
}

// TestDecodeStreamParam pins the streaming flag across encodings: a
// query parameter on any encoding, the body field on JSON, and GET's
// opt-out.
func TestDecodeStreamParam(t *testing.T) {
	for _, c := range []struct {
		name string
		req  *http.Request
		want bool
	}{
		{"raw default", rawReq("spec=insens", "x"), false},
		{"raw stream=1", rawReq("spec=insens&stream=1", "x"), true},
		{"json body field", jsonReq(`{"source":"x","stream":true}`), true},
		{"json query override", jsonReq(`{"source":"x"}`), false},
		{"GET default", getReq("source=x"), true},
		{"GET opt-out", getReq("source=x&stream=false"), false},
	} {
		req, serr := ptav1.DecodeAnalyze(c.req, 1<<20)
		if serr != nil {
			t.Errorf("%s: %v", c.name, serr)
			continue
		}
		if req.Stream != c.want {
			t.Errorf("%s: stream = %v, want %v", c.name, req.Stream, c.want)
		}
	}

	// The stream query parameter also overrides a JSON body.
	r := jsonReq(`{"source":"x"}`)
	r.URL.RawQuery = "stream=1"
	req, serr := ptav1.DecodeAnalyze(r, 1<<20)
	if serr != nil {
		t.Fatal(serr)
	}
	if !req.Stream {
		t.Error("stream=1 did not override the JSON body")
	}
}

// TestDecodeErrors: malformed parameters and bodies are CodeBadRequest,
// never a panic or a silent zero. A JSON body holds exactly one
// document: a second one or trailing bytes are refused, not ignored.
// The retired workers knob is refused on all three encodings alike.
func TestDecodeErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		req  *http.Request
	}{
		{"bad json", jsonReq(`{"source":`)},
		{"unknown field", jsonReq(`{"sauce":"x"}`)},
		{"second document", jsonReq(`{"source":"x","job":{"spec":"insens"}} {"job":{"spec":"2objH"}}`)},
		{"trailing garbage", jsonReq(`{"source":"x","job":{"spec":"insens"}}garbage`)},
		{"trailing brace", jsonReq(`{"source":"x"}}`)},
		{"bad budget", rawReq("budget=much", "x")},
		{"bad deadline", rawReq("deadline_ms=soon", "x")},
		{"bad provenance", rawReq("provenance=maybe", "x")},
		{"workers json", jsonReq(`{"source":"x","job":{"spec":"insens","workers":2}}`)},
		{"workers raw", rawReq("spec=insens&workers=2", "x")},
		{"workers GET", getReq("source=x&spec=insens&workers=2")},
		{"bad stream", rawReq("stream=sure", "x")},
		{"bad GET stream", getReq("source=x&stream=sure")},
	} {
		_, serr := ptav1.DecodeAnalyze(c.req, 1<<20)
		if serr == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if serr.Code != ptav1.CodeBadRequest {
			t.Errorf("%s: code = %q, want bad_request", c.name, serr.Code)
		}
	}

	// Trailing whitespace is not data.
	if _, serr := ptav1.DecodeAnalyze(jsonReq("{\"source\":\"x\"}\n \t\n"), 1<<20); serr != nil {
		t.Errorf("trailing whitespace: %v", serr)
	}
}

// FuzzDecodeAnalyze feeds one query string and one body to all three
// encodings: a raw POST, a GET carrying the body as ?source=, and a
// JSON POST. Invariants: no panic; every error is CodeBadRequest; a
// decoded request names a spec; the raw-POST and GET forms agree (up
// to GET's streaming default), including on whether they fail; and
// when the body and every query key and value are valid UTF-8, the
// raw-POST request survives a JSON round trip. (JSON strings cannot
// carry invalid UTF-8, so without that precondition the round trip
// fails by construction.)
func FuzzDecodeAnalyze(f *testing.F) {
	// Seeds: the rows of TestDecodeEncodingsAgree and TestDecodeErrors,
	// each with its exact Content-Length, then the lengths of
	// TestDecodeRawBodyLengths.
	const src = "class Main { static void main() {} }"
	for _, seed := range []struct{ query, body string }{
		{"", src},
		{"", `{"source":` + quote(src) + `}`},
		{"lang=mj&name=p&spec=insens&budget=-1&deadline_ms=5&provenance=true", src},
		{"", `{"lang":"mj","name":"p","source":` + quote(src) + `,"job":{"spec":"insens"},"budget":-1,"deadline_ms":5,"provenance":true}`},
		{"spec=2objH&taint-sources=A.get&taint-sinks=B.put&taint-sanitizers=C.scrub", src},
		{"", `{"source":` + quote(src) + `,"job":{"spec":"2objH","taint":{"sources":["A.get"],"sinks":["B.put"],"sanitizers":["C.scrub"]}}}`},
		{"", `{"source":`},
		{"", `{"sauce":"x"}`},
		{"", `{"source":"x","job":{"spec":"insens"}} {"job":{"spec":"2objH"}}`},
		{"", `{"source":"x","job":{"spec":"insens"}}garbage`},
		{"", `{"source":"x"}}`},
		{"budget=much", "x"},
		{"deadline_ms=soon", "x"},
		{"provenance=maybe", "x"},
		{"", `{"source":"x","job":{"spec":"insens","workers":2}}`},
		{"spec=insens&workers=2", "x"},
		{"stream=sure", "x"},
	} {
		f.Add(seed.query, seed.body, int64(len(seed.body)))
	}
	for _, length := range rawLengths(int64(len(src)), 1<<30) {
		f.Add("spec=insens", src, length)
	}
	const maxBody = 1 << 30 // above any input: truncation is tested apart
	f.Fuzz(func(t *testing.T, query, body string, length int64) {
		decode := func(form string, r *http.Request, maxBody int64) (ptav1.AnalyzeRequest, bool) {
			req, serr := ptav1.DecodeAnalyze(r, maxBody)
			if serr != nil {
				if serr.Code != ptav1.CodeBadRequest {
					t.Fatalf("%s form: code %q (%s), want bad_request", form, serr.Code, serr.Message)
				}
				return req, false
			}
			if req.Job.Spec == "" {
				t.Fatalf("%s form decoded without a spec: %+v", form, req)
			}
			return req, true
		}

		raw := rawReq(query, body)
		raw.ContentLength = length
		fromRaw, rawOK := decode("raw POST", raw, maxBody)
		q := raw.URL.Query()
		q.Set("source", body)
		fromGET, getOK := decode("GET", getReq(q.Encode()), maxBody)
		js := jsonReq(body)
		js.URL.RawQuery = query
		decode("JSON", js, maxBody)
		checkRawBody(t, func() io.Reader { return strings.NewReader(body) }, length, int64(len(body)/2))

		if rawOK != getOK {
			t.Fatalf("raw POST decoded=%v, GET decoded=%v", rawOK, getOK)
		}
		if !rawOK {
			return
		}
		fromGET.Stream = fromRaw.Stream
		if !reflect.DeepEqual(fromGET, fromRaw) {
			t.Fatalf("GET form = %+v, raw POST form = %+v", fromGET, fromRaw)
		}

		for k, vs := range q {
			if !utf8.ValidString(k) {
				return
			}
			for _, v := range vs {
				if !utf8.ValidString(v) {
					return
				}
			}
		}
		b, err := json.Marshal(fromRaw)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, ok := decode("re-encoded JSON", jsonReq(string(b)), maxBody)
		if !ok || !reflect.DeepEqual(fromJSON, fromRaw) {
			t.Fatalf("JSON round trip of %s = %+v, want %+v", b, fromJSON, fromRaw)
		}
	})
}

// rawLengths are the Content-Length shapes of a body of n bytes read
// under a cap of maxBody: none declared (a chunked body), zero, exact,
// too short, too long, and above the cap.
func rawLengths(n, maxBody int64) []int64 {
	return []int64{-1, 0, n, n - 1, n + 5, maxBody + 10}
}

// checkRawBody decodes a raw POST of body() that declares length as
// its Content-Length, and checks the source against what io.ReadAll
// reads from another body() within maxBody: the same text, or both
// fail.
func checkRawBody(t *testing.T, body func() io.Reader, length, maxBody int64) {
	t.Helper()
	r := analyzeReq(http.MethodPost, "text/plain", "", body())
	r.ContentLength = length
	got, serr := ptav1.DecodeAnalyze(r, maxBody)
	want, err := io.ReadAll(io.LimitReader(body(), maxBody))
	switch {
	case (serr != nil) != (err != nil):
		t.Errorf("Content-Length %d, cap %d: decode error %v, io.ReadAll error %v", length, maxBody, serr, err)
	case serr == nil && got.Source != string(want):
		t.Errorf("Content-Length %d, cap %d: source %q, io.ReadAll read %q", length, maxBody, got.Source, want)
	}
}

// TestDecodeRawBodyLengths: the raw-POST form grows its buffer
// toward Content-Length, which a client may leave out or get wrong.
// Whatever the header says, the source is what io.ReadAll reads within
// the cap, whether the body comes whole, in pieces of odd sizes, or
// fails mid-read, which is an error.
func TestDecodeRawBodyLengths(t *testing.T) {
	broken := errors.New("connection reset")
	for _, tc := range []struct {
		maxBody int64
		bodies  []string
	}{
		{64, []string{"", "class Main {}", strings.Repeat("x", 64), strings.Repeat("y", 74)}},
		{1 << 20, []string{strings.Repeat("z", 200<<10), strings.Repeat("w", 1<<20+10)}},
	} {
		for _, body := range tc.bodies {
			for _, length := range rawLengths(int64(len(body)), tc.maxBody) {
				checkRawBody(t, func() io.Reader { return strings.NewReader(body) }, length, tc.maxBody)
				checkRawBody(t, func() io.Reader { return iotest.HalfReader(strings.NewReader(body)) }, length, tc.maxBody)
				checkRawBody(t, func() io.Reader {
					return io.MultiReader(strings.NewReader(body), iotest.ErrReader(broken))
				}, length, tc.maxBody)
			}
		}
	}
}

// TestDecodeRawBodyDeclaredLength: a Content-Length at the cap that
// the body does not back allocates in proportion to the bytes sent,
// not to the header. (Sizing the buffer from the header alone once
// made each such request allocate the whole cap before reading.)
func TestDecodeRawBodyDeclaredLength(t *testing.T) {
	const maxBody = 2*(4<<20) + 4096 // ptad's cap at the default MaxSourceBytes
	for _, sent := range []int{13, 100 << 10} {
		decode := func() {
			r := rawReq("", strings.Repeat("x", sent))
			r.ContentLength = maxBody
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			req, serr := ptav1.DecodeAnalyze(r, maxBody)
			runtime.ReadMemStats(&after)
			if serr != nil || len(req.Source) != sent {
				t.Fatalf("sent %d bytes: source of %d bytes, error %v", sent, len(req.Source), serr)
			}
			if alloc, most := after.TotalAlloc-before.TotalAlloc, uint64(20*sent+256<<10); alloc > most {
				t.Errorf("sent %d bytes declaring %d: allocated %d bytes, want at most %d", sent, maxBody, alloc, most)
			}
		}
		decode()
		decode()
	}
}

// TestErrorBodyShape pins the one error envelope every endpoint uses.
func TestErrorBodyShape(t *testing.T) {
	body := ptav1.NewErrorBody(ptav1.Errorf(ptav1.CodeOverloaded, "queue full"))
	if body.Schema != ptav1.Schema || body.Code != ptav1.CodeOverloaded || body.Error != "queue full" {
		t.Errorf("envelope = %+v", body)
	}
	for code, status := range map[ptav1.Code]int{
		ptav1.CodeBadRequest: http.StatusBadRequest,
		ptav1.CodeOverloaded: http.StatusTooManyRequests,
		ptav1.CodeDeadline:   http.StatusGatewayTimeout,
		ptav1.CodeInternal:   http.StatusInternalServerError,
	} {
		if got := (&ptav1.Error{Code: code}).HTTPStatus(); got != status {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, status)
		}
	}
}

func quote(s string) string {
	return `"` + s + `"`
}
