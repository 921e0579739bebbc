package ptav1

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"introspect/internal/taint"
)

// DefaultSpec is the analysis /v1/analyze assumes when the request
// names none — in the JSON body and the query-parameter form alike.
const DefaultSpec = "2objH"

// DecodeAnalyze decodes the three request encodings of /v1/analyze
// into one AnalyzeRequest, applying identical defaulting to each —
// this function is the single decode path, so the encodings cannot
// diverge:
//
//   - POST with Content-Type application/json: the body is one
//     AnalyzeRequest document (unknown fields and trailing data
//     rejected). The job travels in the body; query
//     parameters are ignored except "stream", "decisions", and
//     "trace", which select response representations and work on
//     every encoding.
//   - POST with any other content type: the body is raw program
//     source, and the job rides in query parameters — lang (mj|ir),
//     name, spec, budget, deadline_ms, provenance,
//     taint-sources/taint-sinks/taint-sanitizers (comma-separated),
//     stream, decisions, trace. A workers parameter is refused, as
//     the JSON form refuses a workers field.
//   - GET: no body; the "source" query parameter carries the program
//     and the remaining parameters work as in the raw-POST form. GET
//     streams by default (stream=false opts out): it is the
//     curl-friendly way to watch a long solve.
//
// After decoding, an empty Job.Spec defaults to DefaultSpec. Body
// reads are capped at maxBody bytes; size-limit errors surface from
// the service's own source-size validation, which names the limit.
//
// The returned error, when non-nil, is always CodeBadRequest.
func DecodeAnalyze(r *http.Request, maxBody int64) (AnalyzeRequest, *Error) {
	var req AnalyzeRequest
	q := r.URL.Query()

	switch {
	case r.Method == http.MethodGet:
		req.Source = q.Get("source")
		req.Stream = true // GET is the streaming form by default
		if serr := decodeQuery(&req, q); serr != nil {
			return req, serr
		}
	case contentType(r) == "application/json":
		if serr := decodeJSON(r.Body, maxBody, &req); serr != nil {
			return req, serr
		}
		// stream/decisions/trace are the query parameters honored
		// alongside a JSON body: they select response representations,
		// not different computations.
		if serr := decodePresentation(&req, q); serr != nil {
			return req, serr
		}
	default:
		src, err := readBody(r.Body, min(r.ContentLength, maxBody), maxBody)
		if err != nil {
			return req, Errorf(CodeBadRequest, "reading body: %v", err)
		}
		req.Source = src
		if serr := decodeQuery(&req, q); serr != nil {
			return req, serr
		}
	}

	if req.Job.Spec == "" {
		req.Job.Spec = DefaultSpec
	}
	return req, nil
}

// readBody reads body, up to maxBody bytes, into one string. Its
// buffer grows toward size, the declared length (-1 when unknown), as
// bytes arrive, to no more than 16 times what has come plus 64 KiB: a
// declared length alone allocates nothing large, and a body of about
// 1 MiB lands in its second buffer, of exactly its length, which the
// string keeps. A body of another length than declared is cloned, so
// the string keeps no larger buffer.
func readBody(body io.Reader, size, maxBody int64) (string, error) {
	sb, buf := new(strings.Builder), make([]byte, 32<<10)
	body = io.LimitReader(body, maxBody)
	for {
		n, err := body.Read(buf)
		if have := int64(sb.Len() + n); have > int64(sb.Cap()) && have <= size {
			grown := new(strings.Builder)
			grown.Grow(int(min(size, 16*int64(sb.Len())+64<<10)))
			grown.WriteString(sb.String())
			sb = grown
		}
		sb.Write(buf[:n])
		if err == io.EOF {
			break
		} else if err != nil {
			return "", err
		}
	}
	if int64(sb.Len()) != size {
		return strings.Clone(sb.String()), nil
	}
	return sb.String(), nil
}

// decodeJSON decodes a request body that must hold exactly one JSON
// document into v, reading at most maxBody bytes. Unknown fields and
// anything after the document other than whitespace — a second
// document, trailing garbage — are rejected, so a body is never half
// read. The returned error, when non-nil, is CodeBadRequest.
func decodeJSON(body io.Reader, maxBody int64, v any) *Error {
	dec := json.NewDecoder(io.LimitReader(body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Errorf(CodeBadRequest, "decoding request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Errorf(CodeBadRequest, "decoding request: data after the JSON document")
	}
	return nil
}

// decodeQuery fills req's job fields from query parameters — the
// shared half of the GET and raw-POST encodings.
func decodeQuery(req *AnalyzeRequest, q map[string][]string) *Error {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	req.Lang = get("lang")
	req.Name = get("name")
	req.Job = Job{Spec: get("spec")}
	var err error
	if v := get("budget"); v != "" {
		if req.Budget, err = strconv.ParseInt(v, 10, 64); err != nil {
			return Errorf(CodeBadRequest, "budget: %v", err)
		}
	}
	if v := get("deadline_ms"); v != "" {
		if req.DeadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
			return Errorf(CodeBadRequest, "deadline_ms: %v", err)
		}
	}
	if v := get("provenance"); v != "" {
		if req.Provenance, err = strconv.ParseBool(v); err != nil {
			return Errorf(CodeBadRequest, "provenance: %v", err)
		}
	}
	// The JSON form rejects a job's workers field as unknown; the
	// query forms refuse the parameter too rather than ignore it.
	if _, ok := q["workers"]; ok {
		return Errorf(CodeBadRequest, "workers: unknown parameter (every job runs on the serial solver)")
	}
	req.Job.Taint = taint.SpecFromLists(get("taint-sources"), get("taint-sinks"), get("taint-sanitizers"))
	return decodePresentation(req, q)
}

// decodePresentation parses the representation-selecting parameters —
// stream, decisions, trace — honored on every request encoding.
func decodePresentation(req *AnalyzeRequest, q map[string][]string) *Error {
	var err error
	for _, p := range []struct {
		key string
		dst *bool
	}{
		{"stream", &req.Stream},
		{"decisions", &req.Decisions},
		{"trace", &req.Trace},
	} {
		if vs := q[p.key]; len(vs) > 0 && vs[0] != "" {
			if *p.dst, err = strconv.ParseBool(vs[0]); err != nil {
				return Errorf(CodeBadRequest, "%s: %v", p.key, err)
			}
		}
	}
	return nil
}

// contentType extracts the media type of a request, parameters and
// whitespace stripped.
func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}
