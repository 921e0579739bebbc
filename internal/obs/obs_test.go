package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsNoop pins the disabled-mode contract: a nil tracer,
// and everything derived from it, absorbs every call without
// allocating trace state or panicking.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	track := tr.NewTrack("solve")
	if track != nil {
		t.Fatalf("nil tracer NewTrack = %v, want nil", track)
	}
	sp := track.Begin("stage", nil)
	if sp != nil {
		t.Fatalf("nil track Begin = %v, want nil", sp)
	}
	sp.Set("work", 1)
	sp.End()
	track.Instant("snapshot", map[string]any{"work": int64(1)})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer leaked state: len=%d dropped=%d spans=%v", tr.Len(), tr.Dropped(), tr.Spans())
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb, "pta"); err != nil {
		t.Fatalf("nil tracer WriteChrome: %v", err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Errorf("nil tracer trace is not a valid document: %q", sb.String())
	}
}

// TestRingEviction checks the bounded buffer: with capacity 4, ten
// instants retain the last four and count six drops. Track metadata is
// exempt from eviction.
func TestRingEviction(t *testing.T) {
	tr := NewTracer(4)
	track := tr.NewTrack("lane")
	for i := 0; i < 10; i++ {
		track.Instant("ev", map[string]any{"i": i})
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	recs := tr.Spans()
	// meta (thread_name) + the 4 survivors.
	if len(recs) != 5 {
		t.Fatalf("Spans returned %d records, want 5", len(recs))
	}
	if recs[0].Phase != PhaseMetadata {
		t.Errorf("first record phase = %q, want metadata", recs[0].Phase)
	}
	for i, want := range []int{6, 7, 8, 9} {
		if got := recs[i+1].Args["i"]; got != want {
			t.Errorf("survivor %d args.i = %v, want %d", i, got, want)
		}
	}
}

// TestSpanRecordsArgsAndDuration checks Begin/Set/End capture and the
// double-End guard.
func TestSpanRecordsArgsAndDuration(t *testing.T) {
	tr := NewTracer(16)
	track := tr.NewTrack("main")
	sp := track.Begin("main-pass", map[string]any{"analysis": "2objH"})
	time.Sleep(time.Millisecond)
	sp.Set("work", int64(42))
	sp.End()
	sp.End() // must not double-record
	recs := tr.Spans()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (double End recorded twice?)", tr.Len())
	}
	r := recs[len(recs)-1]
	if r.Name != "main-pass" || r.Phase != PhaseSpan {
		t.Errorf("record = %+v, want main-pass span", r)
	}
	if r.Dur <= 0 {
		t.Errorf("span duration = %v, want > 0", r.Dur)
	}
	if r.Args["analysis"] != "2objH" || r.Args["work"] != int64(42) {
		t.Errorf("span args = %v", r.Args)
	}
}

// TestTracerConcurrency hammers one tracer from many goroutines; run
// under -race this is the thread-safety check for the recording path.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			track := tr.NewTrack("worker")
			for i := 0; i < 100; i++ {
				sp := track.Begin("op", nil)
				track.Instant("tick", map[string]any{"i": i})
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 128 {
		t.Errorf("Len = %d, want full ring 128", tr.Len())
	}
	if int(tr.Dropped())+tr.Len() != 8*200 {
		t.Errorf("dropped %d + retained %d != recorded %d", tr.Dropped(), tr.Len(), 8*200)
	}
}
