package service

import (
	"encoding/json"
	"net/http"
	"strings"

	"introspect/internal/analysis"
	ptav1 "introspect/pta/v1"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/analyze   run (or serve from cache) one analysis
//	GET  /v1/analyze   same, streaming by default (?source=... carries the program)
//	GET  /v1/specs     list analyses, capability flags, and variants
//	GET  /v1/flights   in-flight requests with live solver snapshots
//	GET  /healthz      liveness
//	GET  /metrics      cache/queue/latency counters (JSON or Prometheus)
//
// Every response body is a versioned pta/v1 document (see
// introspect/pta/v1); every error, on every endpoint, is the one
// ptav1.ErrorBody envelope.
//
// GET /metrics defaults to the JSON snapshot; it serves the Prometheus
// text exposition instead when the client asks for it — ?format=prometheus,
// or an Accept header naming text/plain or application/openmetrics-text
// (what Prometheus scrapers send).
//
// /v1/analyze accepts a JSON AnalyzeRequest (Content-Type
// application/json), a raw source body with the job in query
// parameters, or a GET with ?source= — one decode path for all three
// (ptav1.DecodeAnalyze documents the parameters). With ?stream=1 (or
// "stream":true in the body; the default on GET) the response is a
// chunked NDJSON event stream; see streamAnalyze.
//
// Every response carries an X-Ptad-Request-Id header (see
// RequestIDHeader), and with Config.Logger set, every /v1/* request
// emits one structured access-log line keyed by that ID. A trace=1
// response's trace carries the same ID as its trace ID.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/specs", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, SpecList())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/flights", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, ptav1.FlightsDoc{
			Schema:  ptav1.Schema,
			Flights: s.Flights(),
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			s.WritePrometheus(w)
			return
		}
		writeBody(w, http.StatusOK, s.Metrics())
	})
	return s.withObservability(mux)
}

// wantsPrometheus decides the /metrics representation: explicit
// ?format=prometheus, or an Accept header naming a text exposition
// type. JSON stays the default so existing tooling is unaffected.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, serr := ptav1.DecodeAnalyze(r, s.maxBody())
	if serr != nil {
		s.metrics.add(&s.metrics.doc.Requests)
		s.metrics.add(&s.metrics.doc.Rejected.Invalid)
		writeError(w, serr)
		return
	}
	if req.Stream {
		s.streamAnalyze(w, r, req)
		return
	}
	// A traced request gets its own tracer: the root span covers the
	// whole handling (so a cache hit traces the lookup), and when this
	// request ends up owning the solve, the track observer adds a span
	// per pipeline stage.
	var rt *reqTrace
	var extra analysis.Observer
	if req.Trace {
		rt = startReqTrace(requestID(r))
		extra = analysis.TrackObserver(rt.track)
	}
	resp, serr := s.analyze(r.Context(), req, extra)
	if serr != nil {
		writeError(w, serr)
		return
	}
	if rt != nil {
		// resp is this request's private shallow copy (finish), so
		// attaching the trace never mutates the shared cached document.
		resp.Trace = rt.doc(resp.Cache)
	}
	writeBody(w, http.StatusOK, resp)
}

// maxBody caps request body reads a little above MaxSourceBytes so an
// oversized source gets the limit-naming CodeBadRequest from validate,
// not a truncated parse.
func (s *Service) maxBody() int64 {
	return int64(s.cfg.MaxSourceBytes)*2 + 4096
}

func writeBody(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, serr *Error) {
	writeBody(w, serr.HTTPStatus(), ptav1.NewErrorBody(serr))
}
