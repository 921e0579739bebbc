package ptav1_test

import (
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/taint"
	ptav1 "introspect/pta/v1"
)

func jsonReq(t *testing.T, body string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodPost, "http://x/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "application/json")
	return r
}

func rawReq(t *testing.T, query, body string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodPost, "http://x/v1/analyze?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "text/plain")
	return r
}

func getReq(t *testing.T, query string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodGet, "http://x/v1/analyze?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fromJSON, serr := ptav1.DecodeAnalyze(jsonReq(t, c.json), 1<<20)
			if serr != nil {
				t.Fatalf("json form: %v", serr)
			}
			fromQuery, serr := ptav1.DecodeAnalyze(rawReq(t, c.query, src), 1<<20)
			if serr != nil {
				t.Fatalf("query form: %v", serr)
			}
			getQuery := c.query
			if getQuery != "" {
				getQuery += "&"
			}
			getQuery += "source=" + url.QueryEscape(src)
			fromGET, serr := ptav1.DecodeAnalyze(getReq(t, getQuery), 1<<20)
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
		{"raw default", rawReq(t, "spec=insens", "x"), false},
		{"raw stream=1", rawReq(t, "spec=insens&stream=1", "x"), true},
		{"json body field", jsonReq(t, `{"source":"x","stream":true}`), true},
		{"json query override", jsonReq(t, `{"source":"x"}`), false},
		{"GET default", getReq(t, "source=x"), true},
		{"GET opt-out", getReq(t, "source=x&stream=false"), false},
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
	r := jsonReq(t, `{"source":"x"}`)
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
		{"bad json", jsonReq(t, `{"source":`)},
		{"unknown field", jsonReq(t, `{"sauce":"x"}`)},
		{"second document", jsonReq(t, `{"source":"x","job":{"spec":"insens"}} {"job":{"spec":"2objH"}}`)},
		{"trailing garbage", jsonReq(t, `{"source":"x","job":{"spec":"insens"}}garbage`)},
		{"trailing brace", jsonReq(t, `{"source":"x"}}`)},
		{"bad budget", rawReq(t, "budget=much", "x")},
		{"bad deadline", rawReq(t, "deadline_ms=soon", "x")},
		{"bad provenance", rawReq(t, "provenance=maybe", "x")},
		{"workers json", jsonReq(t, `{"source":"x","job":{"spec":"insens","workers":2}}`)},
		{"workers raw", rawReq(t, "spec=insens&workers=2", "x")},
		{"workers GET", getReq(t, "source=x&spec=insens&workers=2")},
		{"bad stream", rawReq(t, "stream=sure", "x")},
		{"bad GET stream", getReq(t, "source=x&stream=sure")},
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
	if _, serr := ptav1.DecodeAnalyze(jsonReq(t, "{\"source\":\"x\"}\n \t\n"), 1<<20); serr != nil {
		t.Errorf("trailing whitespace: %v", serr)
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
