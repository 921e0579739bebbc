package pta

import (
	"context"
	"testing"

	"introspect/internal/bits"
	"introspect/internal/ir"
	"introspect/internal/randprog"
	"introspect/internal/suite"
)

// buildChaProgram:
//
//	interface I { m }
//	class A implements I { m }   — instantiated
//	class B implements I { m }   — NEVER instantiated
//	main: I x = new A; x.m()
//
// CHA resolves x.m() to both A.m and B.m; RTA and points-to resolve to
// A.m only.
func buildChaProgram(t *testing.T) (*ir.Program, ir.InvoID) {
	t.Helper()
	b := ir.NewBuilder("cha")
	i := b.AddInterface("I", nil)
	a := b.AddClass("A", ir.None, []ir.TypeID{i})
	bb := b.AddClass("B", ir.None, []ir.TypeID{i})
	am := b.AddMethod(a, "m", "m", 0, true)
	_ = am
	bm := b.AddMethod(bb, "m", "m", 0, true)
	_ = bm

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	x := main.NewVar("x", i)
	main.Alloc(x, a, "hA")
	invo := main.VCall(ir.None, x, "m")
	b.AddEntry(main.ID())
	return b.MustFinish(), invo
}

func TestCHAOverapproximates(t *testing.T) {
	prog, invo := buildChaProgram(t)
	cha := CHA(prog)
	if got := cha.NumInvoTargets(invo); got != 2 {
		t.Errorf("CHA targets = %d, want 2 (A.m and B.m)", got)
	}
	if cha.PolyVCalls() != 1 {
		t.Errorf("CHA PolyVCalls = %d, want 1", cha.PolyVCalls())
	}
	// CHA reaches B.m even though B is never created.
	if cha.NumReachableMethods() != 3 {
		t.Errorf("CHA reachable = %d, want 3", cha.NumReachableMethods())
	}
}

func TestRTAFiltersUninstantiated(t *testing.T) {
	prog, invo := buildChaProgram(t)
	rta := RTA(prog)
	if got := rta.NumInvoTargets(invo); got != 1 {
		t.Errorf("RTA targets = %d, want 1 (only A is instantiated)", got)
	}
	if rta.PolyVCalls() != 0 {
		t.Errorf("RTA PolyVCalls = %d, want 0", rta.PolyVCalls())
	}
	if rta.NumReachableMethods() != 2 {
		t.Errorf("RTA reachable = %d, want 2 (main, A.m)", rta.NumReachableMethods())
	}
}

// TestRTATransitiveInstantiation: a class instantiated only inside a
// method that becomes reachable through dispatch still counts.
func TestRTATransitiveInstantiation(t *testing.T) {
	b := ir.NewBuilder("rta2")
	i := b.AddInterface("I", nil)
	a := b.AddClass("A", ir.None, []ir.TypeID{i})
	c := b.AddClass("C", ir.None, []ir.TypeID{i})
	am := b.AddMethod(a, "m", "m", 0, true)
	// A.m instantiates C — so a second round must add C.m as a target.
	cv := am.NewVar("cv", c)
	am.Alloc(cv, c, "hC")
	am.VCall(ir.None, cv, "m")
	cm := b.AddMethod(c, "m", "m", 0, true)
	_ = cm

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	x := main.NewVar("x", i)
	main.Alloc(x, a, "hA")
	invo := main.VCall(ir.None, x, "m")
	b.AddEntry(main.ID())
	prog := b.MustFinish()

	rta := RTA(prog)
	// Once A.m runs, C gets instantiated, and the main call site now
	// also resolves to C.m.
	if got := rta.NumInvoTargets(invo); got != 2 {
		t.Errorf("RTA targets = %d, want 2 after transitive instantiation", got)
	}
}

// TestBaselineOrdering: on random programs and a suite benchmark,
// precision orders CHA ⊇ RTA ⊇ insens points-to, for reachability and
// per-site targets.
func TestBaselineOrdering(t *testing.T) {
	check := func(prog *ir.Program) {
		t.Helper()
		cha := CHA(prog)
		rta := RTA(prog)
		ins, err := Analyze(context.Background(), prog, "insens", Options{Budget: -1})
		if err != nil {
			t.Fatal(err)
		}
		if cha.NumReachableMethods() < rta.NumReachableMethods() {
			t.Errorf("%s: CHA reach (%d) < RTA reach (%d)", prog.Name,
				cha.NumReachableMethods(), rta.NumReachableMethods())
		}
		if rta.NumReachableMethods() < ins.NumReachableMethods() {
			t.Errorf("%s: RTA reach (%d) < insens reach (%d)", prog.Name,
				rta.NumReachableMethods(), ins.NumReachableMethods())
		}
		for i := 0; i < prog.NumInvos(); i++ {
			ii := ir.InvoID(i)
			if cha.NumInvoTargets(ii) < rta.NumInvoTargets(ii) {
				t.Errorf("%s invo %d: CHA targets < RTA targets", prog.Name, i)
			}
			if rta.NumInvoTargets(ii) < ins.NumInvoTargets(ii) {
				t.Errorf("%s invo %d: RTA targets (%d) < insens targets (%d)",
					prog.Name, i, rta.NumInvoTargets(ii), ins.NumInvoTargets(ii))
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		check(randprog.Generate(seed, randprog.Default()))
	}
	check(suite.MustLoad("lusearch"))
}

// TestVarsPointingToMatchesForward: the reverse query agrees with the
// forward projection, and PointedByVars (metric 5) equals its length.
func TestVarsPointingToMatchesForward(t *testing.T) {
	prog := randprog.Generate(4, randprog.Default())
	res, err := Analyze(context.Background(), prog, "insens", Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < prog.NumHeaps(); h++ {
		back := res.VarsPointingTo(ir.HeapID(h))
		n := 0
		for v := 0; v < prog.NumVars(); v++ {
			if res.VarHeaps(ir.VarID(v)).Has(int32(h)) {
				n++
			}
		}
		if len(back) != n {
			t.Errorf("heap %d: reverse query %d vars, forward %d", h, len(back), n)
		}
	}
	nodes, edges := res.ConstraintStats()
	if nodes == 0 || edges == 0 {
		t.Error("constraint stats empty")
	}
}

// The two classic call-graph baselines that points-to frameworks are
// traditionally compared against, kept as the reference the tests in
// this file check the solver's call graph with:
//
//   - CHA (Class Hierarchy Analysis): a virtual call may dispatch to
//     every override in the hierarchy compatible with the receiver's
//     declared signature — no data flow at all.
//   - RTA (Rapid Type Analysis): like CHA, but only classes actually
//     instantiated somewhere in the reachable program count.
//
// Both are far cheaper and far less precise than even a context-
// insensitive points-to analysis; they bound the precision spectrum
// from below.

// CallGraphResult is the outcome of a CHA or RTA construction.
type CallGraphResult struct {
	Analysis string
	Prog     *ir.Program

	reachable bits.Set
	targets   []map[ir.MethodID]struct{}
	edges     int
}

// NumReachableMethods returns the number of reachable methods.
func (r *CallGraphResult) NumReachableMethods() int { return r.reachable.Len() }

// MethodReachable reports whether m is reachable.
func (r *CallGraphResult) MethodReachable(m ir.MethodID) bool { return r.reachable.Has(int32(m)) }

// NumInvoTargets returns the number of targets resolved for site i.
func (r *CallGraphResult) NumInvoTargets(i ir.InvoID) int { return len(r.targets[i]) }

// NumEdges returns the number of (invocation site, target) edges.
func (r *CallGraphResult) NumEdges() int { return r.edges }

// PolyVCalls counts reachable virtual call sites with more than one
// target — the devirtualization metric under this call-graph
// algorithm.
func (r *CallGraphResult) PolyVCalls() int {
	n := 0
	for mi := range r.Prog.Methods {
		if !r.MethodReachable(ir.MethodID(mi)) {
			continue
		}
		for ci := range r.Prog.Methods[mi].Calls {
			c := &r.Prog.Methods[mi].Calls[ci]
			if c.Kind == ir.Virtual && r.NumInvoTargets(c.Invo) > 1 {
				n++
			}
		}
	}
	return n
}

// CHA builds the Class Hierarchy Analysis call graph.
func CHA(prog *ir.Program) *CallGraphResult { return chaLike(prog, "CHA", false) }

// RTA builds the Rapid Type Analysis call graph: like CHA but a class
// participates in dispatch only once an allocation of it appears in a
// reachable method.
func RTA(prog *ir.Program) *CallGraphResult { return chaLike(prog, "RTA", true) }

// chaLike runs a round-based fixpoint: reachability, (for RTA) the
// instantiated-class set, and call edges grow monotonically until
// stable. CHA and RTA are linear-ish and run in rounds for clarity
// rather than with a fine-grained worklist; both finish in a handful
// of rounds even on the largest suite subjects.
func chaLike(prog *ir.Program, name string, rta bool) *CallGraphResult {
	r := &CallGraphResult{
		Analysis: name,
		Prog:     prog,
		targets:  make([]map[ir.MethodID]struct{}, prog.NumInvos()),
	}
	instantiated := &bits.Set{}
	for _, e := range prog.Entries {
		r.reachable.Add(int32(e))
	}

	addEdge := func(invo ir.InvoID, m ir.MethodID) bool {
		if r.targets[invo] == nil {
			r.targets[invo] = make(map[ir.MethodID]struct{})
		}
		if _, ok := r.targets[invo][m]; ok {
			return false
		}
		r.targets[invo][m] = struct{}{}
		r.edges++
		return true
	}

	// Concrete classes eligible for dispatch under the current
	// instantiated set.
	eligible := func(t int) bool {
		if prog.Types[t].Kind == ir.InterfaceKind || prog.Types[t].Abstract {
			return false
		}
		return !rta || instantiated.Has(int32(t))
	}

	for {
		changed := false
		r.reachable.ForEach(func(mi int32) {
			mm := &prog.Methods[mi]
			if rta {
				for _, a := range mm.Allocs {
					if instantiated.Add(int32(prog.HeapType(a.Heap))) {
						changed = true
					}
				}
			}
			for ci := range mm.Calls {
				c := &mm.Calls[ci]
				switch c.Kind {
				case ir.Direct:
					if addEdge(c.Invo, c.Target) {
						changed = true
					}
					if r.reachable.Add(int32(c.Target)) {
						changed = true
					}
				case ir.Virtual:
					for t := 0; t < prog.NumTypes(); t++ {
						if !eligible(t) {
							continue
						}
						if m := prog.Lookup(ir.TypeID(t), c.Sig); m != ir.None {
							if addEdge(c.Invo, m) {
								changed = true
							}
							if r.reachable.Add(int32(m)) {
								changed = true
							}
						}
					}
				}
			}
		})
		if !changed {
			return r
		}
	}
}
