package service

import (
	"net/http"

	"introspect/internal/obs"
)

// reqTrace is one traced request's private tracer: its own ring (so
// concurrent requests never interleave) and a root "request" span.
type reqTrace struct {
	tracer *obs.Tracer
	track  *obs.Track
	root   *obs.Span
}

// startReqTrace builds a trace=1 request's tracer. The trace ID is the
// request's correlation ID, so the trace and the access-log line name
// the same request; a client that wants to choose the ID supplies it
// in X-Ptad-Request-Id.
func startReqTrace(reqID string) *reqTrace {
	tracer := obs.NewTracer(4096)
	tracer.SetTraceID(reqID)
	track := tracer.NewTrack("request " + reqID)
	root := track.Begin("request", map[string]any{"id": reqID, "node": nodeName})
	return &reqTrace{tracer: tracer, track: track, root: root}
}

// doc ends the root span, annotated with how the request was
// satisfied, and renders the request's trace document.
func (rt *reqTrace) doc(outcome string) *obs.ChromeDoc {
	rt.root.Set("outcome", outcome)
	rt.root.End()
	return &obs.ChromeDoc{TraceEvents: rt.tracer.ChromeEvents("ptad " + nodeName), DisplayTimeUnit: "ms"}
}

// requestID returns the correlation ID minted by the logging
// middleware, or a fresh one when the handler runs without it (tests
// driving handlers directly).
func requestID(r *http.Request) string {
	if ri := reqInfoFrom(r.Context()); ri != nil {
		return ri.id
	}
	return newRequestID()
}
