package analysis_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	"introspect/internal/suite"
)

// TestCancelMidSolve cancels the context in the middle of the solver's
// worklist loop on the suite's most explosive subject (jython under
// full 2objH never terminates within any practical budget). The solver
// must notice promptly, return a partial result, and surface a wrapped
// context.Canceled — and the whole thing must be goroutine-clean so it
// runs under -race in CI.
func TestCancelMidSolve(t *testing.T) {
	prog, err := suite.Load("jython")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from the first solver snapshot: by construction that is
	// mid-solve, with the worklist still hot.
	var fired atomic.Bool
	obs := analysis.ObserverFuncs{
		OnSolveSnapshot: func(string, pta.Snapshot) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}

	start := time.Now()
	res, err := analysis.Run(ctx, analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"},
		Limits:   analysis.Limits{Budget: -1},
		Observer: obs,
	})
	elapsed := time.Since(start)

	if !fired.Load() {
		t.Fatal("snapshot callback never fired; cancellation was not mid-solve")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	// Unbudgeted jython/2objH runs essentially forever; returning within
	// seconds of the first snapshot proves the worklist loop polls
	// the context.
	if elapsed > 2*time.Minute {
		t.Errorf("cancellation took %v; solver is not polling the context", elapsed)
	}
	if res == nil || res.Main == nil {
		t.Fatal("cancelled run should still return the partial result")
	}
	if res.Main.Complete {
		t.Error("cancelled run cannot be complete")
	}
	var cancelled bool
	for _, st := range res.Stages {
		if st.Stage == analysis.StageMainPass && st.Cancelled {
			cancelled = true
		}
	}
	if !cancelled {
		t.Error("main-pass Stats should be flagged Cancelled")
	}

	// No goroutine leak: the pipeline and solver are synchronous; give
	// the runtime a moment to retire test-infrastructure goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCancelBeforeRun: an already-cancelled context fails fast without
// running any stage.
func TestCancelBeforeRun(t *testing.T) {
	prog, err := suite.Load("antlr")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := analysis.Run(ctx, analysis.Request{Prog: prog, Job: analysis.Job{Spec: "insens"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil && res.Main != nil {
		t.Error("no stage should have run under a pre-cancelled context")
	}
}
