// Package obs is the stack's tracing and metrics substrate: a
// zero-overhead-when-disabled span/event recorder with a bounded
// in-memory ring buffer, a Chrome trace-event JSON exporter
// (chrome://tracing / Perfetto-loadable), and a dependency-free
// Prometheus text-exposition writer.
//
// # Disabled-mode cost
//
// Every recording method is defined on a pointer receiver and treats a
// nil receiver as "tracing off": a nil *Tracer yields nil *Track and
// nil *Span values whose methods return immediately. Call sites
// therefore thread a possibly-nil tracer unconditionally and pay one
// nil check when tracing is disabled — the same pattern as the
// solver's provenance recorder. The solver itself goes one step
// further: its sampled snapshot hook (pta.Options.Snapshot) is a plain
// nil func check in the worklist loop, and the snapshot is only
// materialized when the hook is installed.
//
// # Recording model
//
// A Tracer owns a monotonically-growing set of tracks (lanes in the
// trace viewer; "tid" in the Chrome format). Tracks hand out spans
// (Begin/End pairs rendered as Chrome complete events) and instant
// events. Completed records land in a fixed-capacity ring buffer:
// long-running processes such as cmd/ptad keep the most recent
// RingCap records and count what they dropped, while short CLI runs
// size the ring above anything a single run produces. Track-name
// metadata is kept outside the ring so lane names survive eviction.
package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultRingCap is the ring capacity used when NewTracer is given a
// non-positive one: large enough that a single CLI analysis run never
// evicts, small enough to bound a daemon's memory.
const DefaultRingCap = 1 << 16

// Phase values of a SpanRecord, matching the Chrome trace-event "ph"
// field.
const (
	PhaseSpan     = "X" // complete event: Start + Dur
	PhaseInstant  = "i" // instant event: Start only
	PhaseMetadata = "M" // metadata (process/thread names)
)

// SpanRecord is one completed trace record: a span (PhaseSpan), an
// instant event (PhaseInstant), or a metadata record (PhaseMetadata).
// Times are offsets from the tracer's epoch so records order and
// export without wall-clock context.
type SpanRecord struct {
	Name  string
	Phase string
	TID   int64
	Start time.Duration
	Dur   time.Duration
	Args  map[string]any
	seq   uint64 // tiebreak for stable ordering of same-Start records
}

// Tracer records spans and events. The zero value is not usable; build
// one with NewTracer. A nil *Tracer is the disabled tracer: every
// method is a cheap no-op.
//
// All methods are safe for concurrent use; recording takes one short
// mutex-guarded append.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	ring    []SpanRecord // fixed-capacity ring, ring[head] is oldest
	head    int
	count   int
	dropped uint64
	seq     uint64
	nextTID int64
	meta    []SpanRecord // track-name metadata, never evicted
	traceID string
}

// NewTracer builds a tracer whose ring buffer retains the most recent
// ringCap records (non-positive means DefaultRingCap).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Tracer{
		epoch: time.Now(),
		ring:  make([]SpanRecord, ringCap),
	}
}

// record appends one completed record to the ring, evicting the oldest
// when full.
func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	r.seq = t.seq
	t.seq++
	if t.count < len(t.ring) {
		t.ring[(t.head+t.count)%len(t.ring)] = r
		t.count++
	} else {
		t.ring[t.head] = r
		t.head = (t.head + 1) % len(t.ring)
		t.dropped++
	}
	t.mu.Unlock()
}

// since converts an absolute time to an epoch offset.
func (t *Tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// SetTraceID names the trace the tracer's records belong to. When set,
// the Chrome export stamps every span with a trace_id arg (and the
// process metadata with the trace ID), so one request's spans can be
// matched to its access-log line. Safe on a nil tracer.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the distributed trace ID, "" when unset or nil.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// NewTrack allocates a new track (a lane in the trace viewer) with the
// given display name. Safe on a nil tracer, which returns a nil track.
func (t *Tracer) NewTrack(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTID++
	tid := t.nextTID
	t.meta = append(t.meta, SpanRecord{
		Name:  "thread_name",
		Phase: PhaseMetadata,
		TID:   tid,
		Args:  map[string]any{"name": name},
	})
	t.mu.Unlock()
	return &Track{t: t, tid: tid}
}

// Len returns the number of records currently retained in the ring
// (metadata excluded). Zero on a nil tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Dropped returns how many records were evicted from the ring. Zero on
// a nil tracer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the retained records — metadata first, then
// ring records in chronological (Start, then record) order. Nil on a
// nil tracer.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, 0, len(t.meta)+t.count)
	out = append(out, t.meta...)
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	t.mu.Unlock()
	body := out[len(t.meta):]
	sort.SliceStable(body, func(i, j int) bool {
		if body[i].Start != body[j].Start {
			return body[i].Start < body[j].Start
		}
		return body[i].seq < body[j].seq
	})
	return out
}

// Track is one trace lane. A nil *Track (from a nil tracer) is the
// disabled track: Begin returns a nil span and Instant is a no-op.
type Track struct {
	t   *Tracer
	tid int64
}

// Begin opens a span on the track. args may be nil; the map is
// retained, so callers must not mutate it afterwards. End completes
// the span and records it.
func (tr *Track) Begin(name string, args map[string]any) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, start: time.Now(), args: args}
}

// Instant records an instant event on the track. args may be nil and
// is retained.
func (tr *Track) Instant(name string, args map[string]any) {
	if tr == nil {
		return
	}
	tr.t.record(SpanRecord{
		Name:  name,
		Phase: PhaseInstant,
		TID:   tr.tid,
		Start: tr.t.since(time.Now()),
		Args:  args,
	})
}

// Span is one open Begin/End pair. A nil *Span is the disabled span.
// A Span is owned by the goroutine that began it; its methods are not
// safe for concurrent use with each other (the underlying Tracer is).
type Span struct {
	tr    *Track
	name  string
	start time.Time
	args  map[string]any
	ended bool
}

// Set attaches (or overwrites) one argument on the span before End.
func (sp *Span) Set(key string, val any) {
	if sp == nil {
		return
	}
	if sp.args == nil {
		sp.args = make(map[string]any, 4)
	}
	sp.args[key] = val
}

// End completes the span and records it. Multiple Ends record once.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	now := time.Now()
	sp.tr.t.record(SpanRecord{
		Name:  sp.name,
		Phase: PhaseSpan,
		TID:   sp.tr.tid,
		Start: sp.tr.t.since(sp.start),
		Dur:   now.Sub(sp.start),
		Args:  sp.args,
	})
}
