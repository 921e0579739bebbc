package service

import (
	"encoding/json"
	"net/http"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/pta"
	ptav1 "introspect/pta/v1"
)

// streamAnalyze serves one analyze request as a chunked NDJSON event
// stream (Content-Type application/x-ndjson, one ptav1.StreamEvent per
// line): "stage" events at stage boundaries, "snapshot" events from
// the solver's sampled heartbeats (the same SolveSnapshot feed behind
// GET /v1/flights, at the service's SnapshotEvery cadence), then
// exactly one terminal "result" or "error" event.
//
// Requests that are rejected before any solve could start (validation
// errors) fail as plain HTTP error envelopes with their proper status
// — a client sees a 4xx/5xx only before the stream starts. Once the
// 200 and the first chunk are written, failures travel in-band as the
// terminal "error" event.
//
// Cache hits and deduplicated requests stream too, degenerately: no
// progress events (there is no solve to observe), just the terminal
// result. Clients handle every stream the same way — read until the
// terminal event. With trace=1 the terminal result carries the
// request's trace, as a non-streamed response does.
func (s *Service) streamAnalyze(w http.ResponseWriter, r *http.Request, req Request) {
	// Validate eagerly so malformed requests get a real HTTP status
	// instead of a 200 with an immediate error event. analyze
	// re-validates the resolved request; validation is idempotent.
	req, serr := s.validate(req)
	if serr != nil {
		s.metrics.add(&s.metrics.doc.Requests)
		s.metrics.add(&s.metrics.doc.Rejected.Invalid)
		writeError(w, serr)
		return
	}
	s.metrics.add(&s.metrics.doc.Streams)

	// Events flow from the solver's goroutine through a buffered
	// channel. The observer must never block the solve (the Observer
	// contract), so a full buffer drops progress events — they are
	// samples, not a ledger; the terminal event never travels this
	// path and cannot be dropped.
	events := make(chan ptav1.StreamEvent, 64)
	offer := func(ev ptav1.StreamEvent) {
		select {
		case events <- ev:
		default:
		}
	}
	var observer analysis.Observer = analysis.ObserverFuncs{
		OnStageStart: func(stage string) {
			offer(ptav1.StreamEvent{Schema: ptav1.Schema, Event: ptav1.EventStage, Stage: stage})
		},
		OnSolveSnapshot: func(stage string, snap pta.Snapshot) {
			s := snap
			offer(ptav1.StreamEvent{Schema: ptav1.Schema, Event: ptav1.EventSnapshot, Stage: stage, Snapshot: &s})
		},
		OnDecisions: func(stage string, ds []introspect.Decision) {
			// In-band audit for clients watching the solve live. Like
			// every progress event it can be dropped under backpressure
			// — and cache-hit streams never fire it — but the terminal
			// result document carries the same log either way.
			if !req.Decisions {
				return
			}
			offer(ptav1.StreamEvent{Schema: ptav1.Schema, Event: ptav1.EventDecisions, Stage: stage, Decisions: ds})
		},
	}
	var rt *reqTrace
	if req.Trace {
		rt = startReqTrace(requestID(r))
		observer = analysis.Observers(observer, analysis.TrackObserver(rt.track))
	}

	type outcome struct {
		doc  *analysis.RunJSON
		serr *Error
	}
	done := make(chan outcome, 1)
	go func() {
		doc, serr := s.analyze(r.Context(), req, observer)
		done <- outcome{doc, serr}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev ptav1.StreamEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	for {
		select {
		case ev := <-events:
			emit(ev)
		case out := <-done:
			// Drain progress events that beat the result to the
			// channel, so the event order a client sees is causal.
			for {
				select {
				case ev := <-events:
					emit(ev)
					continue
				default:
				}
				break
			}
			if out.serr != nil {
				emit(ptav1.StreamEvent{Schema: ptav1.Schema, Event: ptav1.EventError, Code: out.serr.Code, Error: out.serr.Message})
			} else {
				if rt != nil {
					// out.doc is finish's private copy; the cached
					// document is never traced.
					out.doc.Trace = rt.doc(out.doc.Cache)
				}
				emit(ptav1.StreamEvent{Schema: ptav1.Schema, Event: ptav1.EventResult, Result: out.doc})
			}
			return
		}
	}
}
