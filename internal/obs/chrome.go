package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"time"
)

// ChromeEvent is one entry of the Chrome trace-event format — the
// subset this package emits and consumes. Timestamps and durations are
// microseconds, per the format.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope; always "t" (thread)
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeDoc is the JSON-object trace container. Perfetto and
// chrome://tracing load both this and a bare event array; we emit the
// object form so the file is self-describing.
type ChromeDoc struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ChromeEvents renders the tracer's retained records as Chrome trace
// events: a process_name metadata record, the track names, then the
// ring contents in chronological order. Empty (but valid) on a nil
// tracer.
func (t *Tracer) ChromeEvents(process string) []ChromeEvent {
	recs := t.Spans()
	traceID := t.TraceID()
	procArgs := map[string]any{"name": process}
	if traceID != "" {
		procArgs["trace_id"] = traceID
	}
	out := make([]ChromeEvent, 0, len(recs)+1)
	out = append(out, ChromeEvent{
		Name:  "process_name",
		Phase: PhaseMetadata,
		PID:   1,
		Args:  procArgs,
	})
	for _, r := range recs {
		ev := ChromeEvent{
			Name:  r.Name,
			Phase: r.Phase,
			TS:    micros(r.Start),
			PID:   1,
			TID:   r.TID,
			Args:  r.Args,
		}
		// The trace ID surfaces only in traces that carry one, keeping
		// CLI and /debug/trace exports byte-stable.
		if traceID != "" && r.Phase == PhaseSpan {
			args := make(map[string]any, len(r.Args)+1)
			maps.Copy(args, r.Args)
			args["trace_id"] = traceID
			ev.Args = args
		}
		switch r.Phase {
		case PhaseSpan:
			ev.Dur = micros(r.Dur)
		case PhaseInstant:
			ev.Scope = "t"
		case PhaseMetadata:
			ev.TS = 0
		}
		out = append(out, ev)
	}
	return out
}

// WriteChrome writes the trace as a Chrome trace-event JSON document
// ({"traceEvents": [...]}), loadable by chrome://tracing and Perfetto.
// On a nil tracer it writes a valid empty trace.
func (t *Tracer) WriteChrome(w io.Writer, process string) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeDoc{
		TraceEvents:     t.ChromeEvents(process),
		DisplayTimeUnit: "ms",
	})
}

// ParseChrome reads a Chrome trace-event JSON document — either the
// {"traceEvents": [...]} object form this package writes or a bare
// event array — and returns its events.
func ParseChrome(r io.Reader) ([]ChromeEvent, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	var doc ChromeDoc
	if err := json.Unmarshal(data, &doc); err == nil && doc.TraceEvents != nil {
		return doc.TraceEvents, nil
	}
	var events []ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("obs: trace is neither a traceEvents object nor an event array: %w", err)
	}
	return events, nil
}
