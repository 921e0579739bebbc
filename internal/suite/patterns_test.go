package suite_test

import (
	"context"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/suite"
)

// analyze runs one analysis through the pipeline layer, unbudgeted.
func analyze(prog *ir.Program, spec string) (*pta.Result, error) {
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: spec}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		return nil, err
	}
	return res.Main, nil
}

// These tests verify the cost mechanics each pattern is built on, at
// small scale, so the figure-level behavior rests on checked ground.

func TestObjExplosionContextProduct(t *testing.T) {
	// W driver factories × S sessions must produce ≈ W·S contexts for
	// the chain methods under 2objH.
	p := suite.Profile{Name: "tiny-oe",
		ObjExpl: []suite.ObjExplParams{{S: 6, W: 5, D: 2, L: 2, P: 3, SessClasses: 2, DrvClasses: 2}}}
	prog := p.Build()
	ins, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := analyze(prog, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	// Insensitive: one context per reachable method. 2objH: the D chain
	// methods per driver class get ≈ W·S contexts each.
	wantExtra := 6 * 5 * 2 // W·S contexts × D chain methods (per class, ≈)
	got := obj.NumMethodContexts() - ins.NumMethodContexts()
	if got < wantExtra/2 {
		t.Errorf("2objH method contexts grew by %d; want ≥ %d (W·S·D product)", got, wantExtra/2)
	}
	// Type-sensitivity collapses to SessClasses·DrvClasses.
	ty, err := analyze(prog, "2typeH")
	if err != nil {
		t.Fatal(err)
	}
	if ty.NumMethodContexts() >= obj.NumMethodContexts() {
		t.Errorf("2typeH contexts (%d) should collapse below 2objH (%d)",
			ty.NumMethodContexts(), obj.NumMethodContexts())
	}
	// Call-site sensitivity is immune to this pattern (single chain
	// sites): far fewer contexts than 2objH.
	ch, err := analyze(prog, "2callH")
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumMethodContexts() >= obj.NumMethodContexts() {
		t.Errorf("2callH contexts (%d) should stay below 2objH (%d) on the object pattern",
			ch.NumMethodContexts(), obj.NumMethodContexts())
	}
}

func TestCallFanoutContextProduct(t *testing.T) {
	p := suite.Profile{Name: "tiny-cf",
		CallFan: []suite.CallFanParams{{U: 7, V: 5, D: 2, L: 2, P: 3}}}
	prog := p.Build()
	ins, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := analyze(prog, "2callH")
	if err != nil {
		t.Fatal(err)
	}
	// t1 alone gets U·V contexts.
	if got := ch.NumMethodContexts() - ins.NumMethodContexts(); got < 7*5 {
		t.Errorf("2callH contexts grew by %d; want ≥ %d (U·V product)", got, 7*5)
	}
	// Object-sensitivity is immune (static trampolines).
	obj, err := analyze(prog, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	if obj.NumMethodContexts() != ins.NumMethodContexts() {
		t.Errorf("2objH should add no contexts on static fan-in (got %d vs %d)",
			obj.NumMethodContexts(), ins.NumMethodContexts())
	}
}

func TestHeavyServiceVolumeMetric(t *testing.T) {
	// serve's total points-to volume must be ≈ L·P, the quantity
	// Heuristic B thresholds on.
	const L, P = 4, 6
	p := suite.Profile{Name: "tiny-hv",
		Heavy: []suite.HeavyParams{{H: 2, HClasses: 2, L: L, P: P}}}
	prog := p.Build()
	res, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	m := introspect.Compute(res)
	found := false
	for mi := range prog.Methods {
		name := prog.MethodName(ir.MethodID(mi))
		if len(name) >= 9 && name[len(name)-5:] == "serve" {
			found = true
			vol := m.TotalVolume[mi]
			// L locals + formal + ret each hold the P payloads, and
			// this holds the one service object.
			want := (L+2)*P + 1
			if vol != want {
				t.Errorf("%s volume = %d, want %d", name, vol, want)
			}
		}
	}
	if !found {
		t.Fatal("no serve method found")
	}
}

func TestRouterInflowMetric(t *testing.T) {
	// The feed call sites' in-flow must equal Pm — the value Heuristic
	// A thresholds on.
	const Pm = 9
	p := suite.Profile{Name: "tiny-rt",
		Routers: []suite.RouterParams{{R: 2, Pm: Pm, J: 1}}}
	prog := p.Build()
	res, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	m := introspect.Compute(res)
	feeds := 0
	for i := range m.InFlow {
		if m.InFlow[i] == Pm {
			feeds++
		}
	}
	if feeds < 2 {
		t.Errorf("expected ≥2 call sites with in-flow exactly %d, found %d", Pm, feeds)
	}
}

// TestBenchmarksAnalyzeInsensitively: the insensitive analysis must
// terminate comfortably on every benchmark — the premise of the whole
// introspective technique.
func TestBenchmarksAnalyzeInsensitively(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzing all benchmarks is slow")
	}
	for _, name := range suite.Names() {
		prog := suite.MustLoad(name)
		res, err := analysis.Run(context.Background(), analysis.Request{
			Prog: prog, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: 30_000_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Main.Complete {
			t.Errorf("%s: insensitive analysis exhausted budget (work=%d)", name, res.Main.Work)
		}
		if res.Main.NumReachableMethods() < prog.NumMethods()/2 {
			t.Errorf("%s: only %d/%d methods reachable; generator wiring broken?",
				name, res.Main.NumReachableMethods(), prog.NumMethods())
		}
	}
}
