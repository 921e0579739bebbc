package analysis_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/obs"
	"introspect/internal/pta"
	"introspect/internal/randprog"
)

// TestTraceRoundTrip runs an introspective pipeline under a
// TrackObserver, exports the Chrome trace, re-parses it, and checks
// the structural invariants a trace viewer relies on: every pipeline
// stage is a span nested (same tid, time-contained) inside the
// caller's run span, stages do not overlap each other, and the sampled
// solver snapshots land inside a solver stage with their counters
// intact.
func TestTraceRoundTrip(t *testing.T) {
	prog := randprog.Generate(7, randprog.Default())
	tracer := obs.NewTracer(1 << 12)
	track := tracer.NewTrack("roundtrip 2objH-IntroA")

	runSpan := track.Begin("run", map[string]any{"spec": "2objH-IntroA"})
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog:          prog,
		Job:           analysis.Job{Spec: "2objH-IntroA"},
		Limits:        analysis.Limits{Budget: -1},
		Observer:      analysis.TrackObserver(track),
		SnapshotEvery: 1, // densest sampling: every eligible worklist pop
	})
	runSpan.End()
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := tracer.WriteChrome(&sb, "analysis-test"); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseChrome(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parsing exported trace: %v", err)
	}

	var run *obs.ChromeEvent
	stages := map[string]obs.ChromeEvent{}
	var snapshots []obs.ChromeEvent
	for i, ev := range events {
		switch {
		case ev.Phase == obs.PhaseSpan && ev.Name == "run":
			run = &events[i]
		case ev.Phase == obs.PhaseSpan:
			stages[ev.Name] = ev
		case ev.Phase == obs.PhaseInstant && ev.Name == "solver":
			snapshots = append(snapshots, ev)
		}
	}
	if run == nil {
		t.Fatal("run span missing from exported trace")
	}
	for _, want := range []string{"pre-pass", "metrics", "selection", "main-pass", "report"} {
		ev, ok := stages[want]
		if !ok {
			t.Errorf("stage %s has no span; spans: %v", want, stageNames(stages))
			continue
		}
		if ev.TID != run.TID {
			t.Errorf("stage %s on tid %d, run on %d", want, ev.TID, run.TID)
		}
		if ev.TS < run.TS || ev.TS+ev.Dur > run.TS+run.Dur {
			t.Errorf("stage %s [%v,+%v] not nested in run [%v,+%v]",
				want, ev.TS, ev.Dur, run.TS, run.Dur)
		}
	}
	// The main pass must carry its solver counters as span args.
	if mp := stages["main-pass"]; mp.Args["work"] == nil || mp.Args["analysis"] == nil {
		t.Errorf("main-pass span lacks solver args: %v", mp.Args)
	}
	if len(snapshots) == 0 {
		t.Fatal("no solver snapshot instants in trace")
	}
	for _, sn := range snapshots {
		stage, _ := sn.Args["stage"].(string)
		ev, ok := stages[stage]
		if !ok {
			t.Errorf("snapshot names unknown stage %q", stage)
			continue
		}
		if sn.TS < ev.TS || sn.TS > ev.TS+ev.Dur {
			t.Errorf("snapshot at %v outside its stage %s [%v,+%v]", sn.TS, stage, ev.TS, ev.Dur)
		}
		if w, _ := sn.Args["work"].(float64); w <= 0 {
			t.Errorf("snapshot work = %v, want > 0", sn.Args["work"])
		}
	}
	if res.Main == nil || !res.Main.Complete {
		t.Error("traced pipeline did not complete")
	}
}

func stageNames(m map[string]obs.ChromeEvent) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestObserverConcurrentUnderRunAll enforces the Observer concurrency
// contract: one Observer instance shared by a fleet receives callbacks
// from multiple worker goroutines, concurrently. The test (a) proves
// overlap actually occurs — two StageStarts inside the callback at
// once — and (b) exercises the bundled observers (ObserverFuncs over
// atomics, a shared TrackObserver, and the Observers combinator) under
// the race detector via `make race`.
func TestObserverConcurrentUnderRunAll(t *testing.T) {
	const n = 8
	reqs := make([]analysis.Request, n)
	for i := range reqs {
		reqs[i] = analysis.Request{
			Prog:          randprog.Generate(int64(i+20), randprog.Default()),
			Job:           analysis.Job{Spec: "2objH"},
			Limits:        analysis.Limits{Budget: -1},
			SnapshotEvery: 1,
		}
	}

	var starts, finishes, snapshots atomic.Int64
	var inCallback, maxInCallback atomic.Int64
	funcs := analysis.ObserverFuncs{
		OnStageStart: func(stage string) {
			cur := inCallback.Add(1)
			for prev := maxInCallback.Load(); cur > prev; prev = maxInCallback.Load() {
				if maxInCallback.CompareAndSwap(prev, cur) {
					break
				}
			}
			// Linger while alone in the callback so a second worker's
			// StageStart can overlap; bounded, so a serialized
			// environment (GOMAXPROCS=1) still terminates promptly.
			for i := 0; i < 10_000 && inCallback.Load() == 1; i++ {
				runtime.Gosched()
			}
			inCallback.Add(-1)
			starts.Add(1)
		},
		OnStageFinish:   func(string, analysis.Stats, error) { finishes.Add(1) },
		OnSolveSnapshot: func(string, pta.Snapshot) { snapshots.Add(1) },
	}
	tracer := obs.NewTracer(1 << 12)
	shared := analysis.Observers(funcs, analysis.TrackObserver(tracer.NewTrack("fleet")))
	for i := range reqs {
		reqs[i].Observer = shared
	}

	for i, rr := range collect(context.Background(), reqs, 4) {
		if rr.Err != nil {
			t.Fatalf("request %d: %v", i, rr.Err)
		}
	}
	// Each 2objH request is a single-pass pipeline: main-pass + report.
	if got := starts.Load(); got != 2*n {
		t.Errorf("stage starts = %d, want %d", got, 2*n)
	}
	if got := finishes.Load(); got != starts.Load() {
		t.Errorf("stage finishes = %d != starts %d", got, starts.Load())
	}
	if snapshots.Load() == 0 {
		t.Error("shared observer saw no solver snapshots")
	}
	if tracer.Len() == 0 && tracer.Dropped() == 0 {
		t.Error("shared TrackObserver recorded nothing")
	}
	if runtime.GOMAXPROCS(0) > 1 && maxInCallback.Load() < 2 {
		t.Errorf("observer callbacks never overlapped (max concurrent = %d); "+
			"RunAll no longer invokes observers from multiple goroutines?", maxInCallback.Load())
	}
}
