package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"introspect/internal/obs"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{0, 0, 0, false},
		{19, 0, 0, false}, // the median leaves only 9 above it
		{20, 50, 10, true},
		{36, 70, 10, true},
		{54, 80, 10, true},
		{144, 90, 14, true},
		{160, 90, 16, true}, // p95 would leave 8
		{200, 95, 10, true},
		{720, 98, 14, true},
		{1000, 99, 10, true},
		{10000, 99.9, 10, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestTailReportsPercentileAndCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := tail(xs)
	if got.P != 95 || got.N != 200 || got.Beyond != 10 {
		t.Fatalf("tail = %+v, want p95 of 200 with 10 beyond", got)
	}
	if got.Value < 189 || got.Value > 192 {
		t.Errorf("p95 of 1..200 = %g, want about 190", got.Value)
	}
	if few := tail([]float64{3, 1, 2}); few.P != 100 || few.Value != 3 || few.Beyond != 0 || few.N != 3 {
		t.Errorf("tail of 3 samples = %+v, want the maximum as p100", few)
	}
}

func TestHarrellDavis(t *testing.T) {
	if got := regIncBeta(0.3, 1, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("I_0.3(1,1) = %g, want 0.3", got)
	}
	if got := regIncBeta(0.5, 7.5, 7.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("I_0.5(a,a) = %g, want 0.5", got)
	}
	if got := p50([]float64{5, 1, 9, 3, 7}); math.Abs(got-5) > 1e-9 {
		t.Errorf("median of a symmetric sample = %g, want 5", got)
	}
	if got := hdQuantile([]float64{4, 4, 4, 4}, 0.9); math.Abs(got-4) > 1e-9 {
		t.Errorf("quantile of a constant sample = %g, want 4", got)
	}
	// Two equal clusters: the order-statistic median jumps between them
	// when one sample moves; the estimate barely moves.
	var xs []float64
	for i := 0; i < 20; i++ {
		xs = append(xs, 10, 30)
	}
	before := p50(xs)
	xs[0] = 31 // one fast sample turns slow
	after := p50(xs)
	jump := median(xs) - 20 // the order-statistic median lands on 30
	if math.Abs(before-20) > 1e-9 || after-before > jump/3 {
		t.Errorf("median of two clusters %g -> %g, want 20 moving by under %g", before, after, jump/3)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	// A service with one worker that takes 20 ms per request: requests
	// due 5 ms apart queue behind each other, and their latency must
	// carry that wait, not just their own 20 ms.
	var worker sync.Mutex
	dues := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	ts := openLoop(dues, func(int) {
		worker.Lock()
		time.Sleep(20 * time.Millisecond)
		worker.Unlock()
	})
	var slowest time.Duration
	for i, tm := range ts {
		if tm.due != dues[i] || tm.sent < tm.due || tm.done < tm.sent {
			t.Fatalf("request %d timing out of order: %+v", i, tm)
		}
		slowest = max(slowest, tm.latency())
	}
	// The last one in the queue waits for two others and then runs:
	// at least 60 ms after the first was due, 50 ms after its own due.
	if slowest < 50*time.Millisecond {
		t.Errorf("slowest latency %v, want at least 50ms of queueing plus service", slowest)
	}
}

func TestTimingLatencyAndLateness(t *testing.T) {
	tm := timing{due: 10 * time.Millisecond, sent: 15 * time.Millisecond, done: 40 * time.Millisecond}
	if tm.latency() != 30*time.Millisecond {
		t.Errorf("latency = %v, want 30ms counted from the due time", tm.latency())
	}
	if tm.late() != 5*time.Millisecond {
		t.Errorf("late = %v, want 5ms", tm.late())
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	// Two children on concurrent tracks overlap each other; one sticks
	// out past the parent. Covered: [10,60) ∪ [70,100) = 80 ms.
	kids := []interval{{10 * ms, 50 * ms}, {30 * ms, 60 * ms}, {70 * ms, 120 * ms}}
	if got := selfTime(parent, kids); got != 20*ms {
		t.Errorf("selfTime = %v, want 20ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
}

func TestFleetsSplitsAtFleetBoundaries(t *testing.T) {
	ms := time.Millisecond
	l := &spanLog{names: map[int64]string{}}
	add := func(tid int64, name string, runs ...interval) {
		l.tracks = append(l.tracks, tid)
		l.names[tid] = name
		for _, iv := range runs {
			l.spans = append(l.spans, span{name: "main-pass", track: tid, iv: iv})
		}
	}
	add(1, "perfbench")
	// Insensitive fleet on two slots: one run of 40 ms beside one of
	// 10 ms, so one slot idles 30 ms at the barrier.
	add(2, "a insens", interval{0, 40 * ms})
	add(3, "b insens", interval{0, 10 * ms})
	// Next fleet: two overlapping runs of 20 ms each, no idle time.
	add(4, "a 2objH", interval{40 * ms, 60 * ms})
	add(5, "b 2objH", interval{40 * ms, 60 * ms})
	l.spans = append(l.spans, span{name: "figures.FigPerf", track: 1, iv: interval{0, 70 * ms}})
	fs := l.fleets(2, 1)
	if fs.busy != 90*ms || fs.stages != 90*ms || fs.barrierIdle != 30*ms {
		t.Errorf("fleets = busy %v, stages %v, idle %v; want 90ms, 90ms, 30ms", fs.busy, fs.stages, fs.barrierIdle)
	}
	// The figure span's own time is what no run covers: [60,70).
	if got := selfTime(interval{0, 70 * ms}, fs.runs); got != 10*ms {
		t.Errorf("FigPerf self time = %v, want 10ms", got)
	}
}

func TestReadSpansSelfTimePerTrack(t *testing.T) {
	tr := obs.NewTracer(64)
	a, b := tr.NewTrack("a"), tr.NewTrack("b")
	// The run's own stage covers its first half; a stage on another
	// track covers the second half and must not count as its child.
	run := a.Begin("analysis.Run", nil)
	stage := a.Begin("main-pass", nil)
	time.Sleep(5 * time.Millisecond)
	stage.End()
	other := b.Begin("main-pass", nil)
	time.Sleep(5 * time.Millisecond)
	other.End()
	run.End()
	l, err := readSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	var runDur time.Duration
	for _, d := range l.durations("analysis.Run") {
		runDur += d
	}
	self := l.selfOf("analysis.Run")
	if self < 5*time.Millisecond || runDur-self < 5*time.Millisecond {
		t.Errorf("analysis.Run self %v of %v: only its own track's stage should count", self, runDur)
	}
}

func TestQueueWaitsFromAccessLog(t *testing.T) {
	log := []byte(`{"msg":"request","cache":"miss","queue_ms":12}
{"msg":"request","cache":"miss"}
{"msg":"request","cache":"hit"}
`)
	got, err := queueWaits(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 12 || got[1] != 0 {
		t.Errorf("queueWaits = %v, want [12 0]", got)
	}
}
