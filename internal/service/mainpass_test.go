package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/service"
	"introspect/internal/taint"
)

// uniform sets every threshold of spec's heuristic to v.
func uniform(spec string, v int) *analysis.Thresholds {
	if spec == "2objH-IntroB" {
		return &analysis.Thresholds{P: v, Q: v}
	}
	return &analysis.Thresholds{K: v, L: v, M: v}
}

// huge thresholds refine every site, on any program.
const huge = 1 << 20

// selections returns a function giving the refinement that uniform
// thresholds v select on prog under spec's heuristic.
func selections(t *testing.T, prog *ir.Program, spec string) func(v int) *pta.Refinement {
	t.Helper()
	first, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := introspect.Compute(first)
	return func(v int) *pta.Refinement {
		h := introspect.HeuristicA(v, v, v)
		if spec == "2objH-IntroB" {
			h = introspect.HeuristicB(v, v)
		}
		return h.Select(prog, m, nil)
	}
}

func sameRefinement(a, b *pta.Refinement) bool {
	return a.Heaps.Equal(&b.Heaps) && a.Invos.Equal(&b.Invos) && a.Methods.Equal(&b.Methods)
}

// coldDoc is req's document from a fresh service, which has nothing
// to share.
func coldDoc(t *testing.T, req service.Request) string {
	t.Helper()
	return canonical(t, analyzeOne(t, service.MustNew(service.Config{Workers: 1}), req))
}

// TestMainPassSharing: over random programs and both heuristics, a
// request whose thresholds select the refinement an earlier request
// selected reuses that request's main pass. It still answers miss,
// with its own decision audit, counts one main_pass_shared, and its
// document equals a cold service's. Thresholds that select otherwise
// share nothing.
func TestMainPassSharing(t *testing.T) {
	nonEmpty := 0
	for seed := int64(1); seed <= 6; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		src := irText(t, prog)
		for _, spec := range []string{"2objH-IntroA", "2objH-IntroB"} {
			sel := selections(t, prog, spec)
			// The smallest v selecting a non-empty refinement that v+1
			// selects too; else two that both refine everything.
			a, b := huge, huge+1
			for v := 1; v < 64; v++ {
				if r := sel(v); (!r.Heaps.Empty() || !r.Invos.Empty() || !r.Methods.Empty()) && sameRefinement(r, sel(v+1)) {
					a, b = v, v+1
					nonEmpty++
					break
				}
			}
			other := huge
			if sameRefinement(sel(a), sel(other)) {
				other = 1
			}
			if sameRefinement(sel(a), sel(other)) {
				t.Fatalf("seed %d %s: thresholds 1, %d and %d all select alike", seed, spec, a, huge)
			}
			req := func(v int) service.Request {
				return service.Request{Lang: "ir", Source: src, Budget: -1, Decisions: true,
					Job: analysis.Job{Spec: spec, Thresholds: uniform(spec, v)}}
			}
			name := fmt.Sprintf("seed %d %s", seed, spec)

			svc := service.MustNew(service.Config{Workers: 1})
			analyzeOne(t, svc, req(a))
			got := analyzeOne(t, svc, req(b))
			if m := svc.Metrics(); got.Cache != "miss" || m.MainPassShared != 1 {
				t.Errorf("%s: thresholds %d after %d: cache %q, main_pass_shared %d; want miss and 1", name, b, a, got.Cache, m.MainPassShared)
			}
			if c, g := coldDoc(t, req(b)), canonical(t, got); c != g {
				t.Errorf("%s: shared document differs from a cold service's:\ncold   %s\nshared %s", name, c, g)
			}
			got = analyzeOne(t, svc, req(other))
			if m := svc.Metrics(); m.MainPassShared != 1 {
				t.Errorf("%s: thresholds %d select otherwise but main_pass_shared = %d, want 1", name, other, m.MainPassShared)
			}
			if c, g := coldDoc(t, req(other)), canonical(t, got); c != g {
				t.Errorf("%s: thresholds %d: document differs from a cold service's", name, other)
			}
		}
	}
	if nonEmpty < 6 {
		t.Errorf("%d of 12 cases shared a non-empty refinement, want at least 6; widen the seeds", nonEmpty)
	}
}

// TestMainPassSharingCapped: a main pass that ran out of budget is
// reused like a complete one, as the same complete:false document with
// the same counters.
func TestMainPassSharingCapped(t *testing.T) {
	prog := randprog.Generate(6, randprog.Default())
	first, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := func(v int) service.Request {
		// The pre-pass fits the budget; the full-depth main pass does not.
		return service.Request{Lang: "ir", Source: irText(t, prog), Budget: first.Work,
			Job: analysis.Job{Spec: "2objH-IntroA", Thresholds: uniform("2objH-IntroA", v)}}
	}
	svc := service.MustNew(service.Config{Workers: 1})
	donor := analyzeOne(t, svc, req(huge))
	if last := donor.Stages[len(donor.Stages)-2]; donor.Complete || last.Stage != analysis.StageMainPass || !last.BudgetExceeded {
		t.Fatalf("the donor should cap in the main pass: complete %v, stage %s budget_exceeded %v", donor.Complete, last.Stage, last.BudgetExceeded)
	}
	got := analyzeOne(t, svc, req(huge+1))
	if m := svc.Metrics(); got.Cache != "miss" || got.Complete || m.MainPassShared != 1 || m.InternalErrs != 0 {
		t.Errorf("cache %q complete %v, main_pass_shared %d, internal_errors %d; want miss, false, 1 and 0",
			got.Cache, got.Complete, m.MainPassShared, m.InternalErrs)
	}
	if c, g := coldDoc(t, req(huge+1)), canonical(t, got); c != g {
		t.Errorf("shared capped document differs from a cold service's:\ncold   %s\nshared %s", c, g)
	}
}

// TestMainPassNotSharedAcross: a main pass is shared only under the
// same budget, provenance flag and taint spec. A taint job's pre-pass,
// solved over the instrumented program, is not offered to plain jobs
// either: one that was answered them with an internal error.
func TestMainPassNotSharedAcross(t *testing.T) {
	kern, _ := taint.Kernel()
	src := irText(t, kern)
	base := service.Request{Lang: "ir", Source: src, Budget: -1,
		Job: analysis.Job{Spec: "2objH-IntroA", Thresholds: uniform("2objH-IntroA", huge)}}
	alike := base
	alike.Job.Thresholds = uniform("2objH-IntroA", huge+1)
	budget, prov := alike, alike
	budget.Budget = 1 << 40
	prov.Provenance = true
	withTaint := func(r service.Request) service.Request {
		r.Job.Taint = taint.KernelSpec()
		return r
	}
	for _, c := range []struct {
		name        string
		donor, then service.Request
	}{
		{"budget", base, budget},
		{"provenance", base, prov},
		{"taint then plain", withTaint(base), alike},
		{"plain then taint", base, withTaint(alike)},
	} {
		svc := service.MustNew(service.Config{Workers: 1})
		analyzeOne(t, svc, c.donor)
		got, serr := svc.Analyze(context.Background(), c.then)
		if serr != nil {
			t.Errorf("%s: %v", c.name, serr)
			continue
		}
		if m := svc.Metrics(); m.MainPassShared != 0 {
			t.Errorf("%s: main_pass_shared = %d, want 0", c.name, m.MainPassShared)
		}
		if cold := coldDoc(t, c.then); cold != canonical(t, got) {
			t.Errorf("%s: document differs from a cold service's", c.name)
		}
	}
}

// TestConcurrentSweeps fires threshold sweeps at one service at once:
// two programs, both heuristics, thresholds that select alike and
// otherwise, each asked twice. Every document equals a cold service's.
// Run under -race this exercises the outcome cache's locking.
func TestConcurrentSweeps(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2, QueueDepth: 128})
	var reqs []service.Request
	for seed := int64(1); seed <= 2; seed++ {
		src := irText(t, randprog.Generate(seed, randprog.Default()))
		for _, spec := range []string{"2objH-IntroA", "2objH-IntroB"} {
			for _, v := range []int{1, 2, 3, 5, 8, huge, huge + 1} {
				req := service.Request{Lang: "ir", Source: src, Budget: -1, Job: analysis.Job{Spec: spec, Thresholds: uniform(spec, v)}}
				reqs = append(reqs, req, req)
			}
		}
	}
	docs := make([]*analysis.RunJSON, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc, serr := svc.Analyze(context.Background(), reqs[i])
			if serr != nil {
				t.Errorf("request %d: %v", i, serr)
				return
			}
			docs[i] = doc
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(reqs); i += 2 {
		cold := coldDoc(t, reqs[i])
		for _, doc := range docs[i : i+2] {
			if doc != nil && canonical(t, doc) != cold {
				t.Errorf("%s thresholds %+v: document differs from a cold service's", reqs[i].Job.Spec, *reqs[i].Job.Thresholds)
			}
		}
	}
	t.Logf("main_pass_shared %d of %d requests", svc.Metrics().MainPassShared, len(reqs))
}
