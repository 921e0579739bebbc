package analysis_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/suite"
)

// TestRunAllMatchesSequential pins the fleet runner's two core
// guarantees: results come back in request order, and running
// concurrently changes nothing about the analysis — every run is
// bit-for-bit identical to its sequential counterpart.
func TestRunAllMatchesSequential(t *testing.T) {
	progA := randprog.Generate(2, randprog.Default())
	progB := randprog.Generate(3, randprog.Default())
	reqs := []analysis.Request{
		{Prog: progA, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: -1}},
		{Prog: progB, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: -1}},
		{Prog: progA, Job: analysis.Job{Spec: "2objH-IntroA"}, Limits: analysis.Limits{Budget: -1}},
		{Prog: progB, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: -1}},
		{Prog: progB, Job: analysis.Job{Spec: "2objH-IntroB"}, Limits: analysis.Limits{Budget: -1}},
		{Prog: progA, Job: analysis.Job{Spec: "2typeH"}, Limits: analysis.Limits{Budget: -1}},
	}

	want := make([]*analysis.Result, len(reqs))
	for i, r := range reqs {
		res, err := analysis.Run(context.Background(), r)
		if err != nil {
			t.Fatalf("sequential run %d (%s): %v", i, r.Job.Spec, err)
		}
		want[i] = res
	}

	got := analysis.RunAll(context.Background(), reqs, 4)
	if len(got) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(got), len(reqs))
	}
	for i, rr := range got {
		if rr.Err != nil {
			t.Fatalf("parallel run %d (%s): %v", i, reqs[i].Job.Spec, rr.Err)
		}
		if rr.Result.Analysis != want[i].Analysis {
			t.Errorf("slot %d: analysis %q, want %q — results out of request order",
				i, rr.Result.Analysis, want[i].Analysis)
		}
		pm, sm := rr.Result.Main, want[i].Main
		if pm.Work != sm.Work || pm.Derivations != sm.Derivations ||
			pm.VarPTSize() != sm.VarPTSize() || pm.NumCallGraphEdges() != sm.NumCallGraphEdges() {
			t.Errorf("slot %d (%s): parallel run diverges from sequential: work %d/%d derivations %d/%d varPT %d/%d cg %d/%d",
				i, reqs[i].Job.Spec, pm.Work, sm.Work, pm.Derivations, sm.Derivations,
				pm.VarPTSize(), sm.VarPTSize(), pm.NumCallGraphEdges(), sm.NumCallGraphEdges())
		}
		pp, sp := *rr.Result.Precision, *want[i].Precision
		pp.ElapsedMS, sp.ElapsedMS = 0, 0 // wall time is the one nondeterministic field
		if pp != sp {
			t.Errorf("slot %d (%s): precision diverges: %+v vs %+v",
				i, reqs[i].Job.Spec, pp, sp)
		}
	}
}

// TestRunAllCancellation cancels the context while a fleet of
// practically-unbounded runs is in flight. The fleet must drain
// promptly: in-flight runs abort mid-solve, never-started requests
// are skipped, and every slot surfaces the cancellation.
func TestRunAllCancellation(t *testing.T) {
	prog, err := suite.Load("jython")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from the first solver snapshot — by construction the
	// fleet is then mid-solve with more requests still queued.
	var fired atomic.Bool
	obs := analysis.ObserverFuncs{
		OnSolveSnapshot: func(string, pta.Snapshot) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}
	reqs := make([]analysis.Request, 4)
	for i := range reqs {
		reqs[i] = analysis.Request{
			Prog: prog, Job: analysis.Job{Spec: "2objH"},
			Limits:   analysis.Limits{Budget: -1},
			Observer: obs,
		}
	}

	start := time.Now()
	got := analysis.RunAll(ctx, reqs, 2)
	elapsed := time.Since(start)

	if !fired.Load() {
		t.Fatal("snapshot callback never fired; cancellation was not mid-fleet")
	}
	if elapsed > 2*time.Minute {
		t.Errorf("fleet took %v to drain after cancellation", elapsed)
	}
	for i, rr := range got {
		if !errors.Is(rr.Err, context.Canceled) {
			t.Errorf("slot %d: want wrapped context.Canceled, got %v", i, rr.Err)
		}
	}
}

// TestRunAllEdgeCases covers the pool-sizing corners: an empty request
// list, and worker counts above the request count and at/below zero.
func TestRunAllEdgeCases(t *testing.T) {
	if got := analysis.RunAll(context.Background(), nil, 3); len(got) != 0 {
		t.Errorf("empty fleet returned %d results", len(got))
	}
	prog := randprog.Generate(1, randprog.Default())
	for _, workers := range []int{-1, 0, 1, 16} {
		got := analysis.RunAll(context.Background(), []analysis.Request{
			{Prog: prog, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: -1}},
		}, workers)
		if len(got) != 1 || got[0].Err != nil || got[0].Result.Main == nil {
			t.Errorf("workers=%d: unexpected outcome %+v", workers, got)
		}
	}
}
