package cutshortcut_test

import (
	"context"
	"fmt"
	"testing"

	"introspect/internal/cutshortcut"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/suite"
)

// patternProg builds one class exercising every detector pattern plus
// the veto cases, and returns the program and the method ids by role.
func patternProg(t *testing.T) (*ir.Program, map[string]ir.MethodID) {
	t.Helper()
	b := ir.NewBuilder("patterns")
	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	b.AddEntry(main.ID())

	cls := b.AddClass("C", ir.None, nil)
	f := b.AddField(cls, "f")
	g := b.AddField(cls, "g")

	ms := map[string]ir.MethodID{}
	reg := func(name string, mb *ir.MethodBuilder) { ms[name] = mb.ID() }

	// put(p) { this.f = p } — setter.
	put := b.AddMethod(cls, "put", "put", 1, true)
	put.Store(put.This(), f, put.Formal(0))
	reg("put", put)

	// get() { return this.f } — getter.
	get := b.AddMethod(cls, "get", "get", 0, false)
	get.Load(get.Ret(), get.This(), f)
	reg("get", get)

	// self() { return this } — returned receiver.
	self := b.AddMethod(cls, "self", "self", 0, false)
	self.Move(self.Ret(), self.This())
	reg("self", self)

	// id(p) { r = p; return r } — returned formal through a move chain.
	id := b.AddMethod(cls, "id", "id", 1, false)
	r := id.NewVar("r", ir.None)
	id.Move(r, id.Formal(0))
	id.Move(id.Ret(), r)
	reg("id", id)

	// fluentPut(p) { this.g = p; return this } — setter and returned
	// receiver in one method.
	fluent := b.AddMethod(cls, "fluentPut", "fluentPut", 1, false)
	fluent.Store(fluent.This(), g, fluent.Formal(0))
	fluent.Move(fluent.Ret(), fluent.This())
	reg("fluentPut", fluent)

	// fresh() { return new C } — allocation taints the return closure.
	fresh := b.AddMethod(cls, "fresh", "fresh", 0, false)
	v := fresh.NewVar("v", cls)
	fresh.Alloc(v, cls, "")
	fresh.Move(fresh.Ret(), v)
	reg("fresh", fresh)

	// escape(p) { this.f = p; this.g = p } — the formal is used twice,
	// so the argument link must survive.
	escape := b.AddMethod(cls, "escape", "escape", 1, true)
	escape.Store(escape.This(), f, escape.Formal(0))
	escape.Store(escape.This(), g, escape.Formal(0))
	reg("escape", escape)

	// viaCall() { return this.get() } — a call result taints the
	// return closure.
	via := b.AddMethod(cls, "viaCall", "viaCall", 0, false)
	cv := via.NewVar("cv", ir.None)
	via.VCall(cv, via.This(), "get")
	via.Move(via.Ret(), cv)
	reg("viaCall", via)

	// Keep everything reachable-ish; the detector is static, so the
	// main body only needs to exist.
	cv2 := main.NewVar("c", cls)
	main.Alloc(cv2, cls, "")

	return b.MustFinish(), ms
}

func TestDetectPatterns(t *testing.T) {
	prog, ms := patternProg(t)
	edits := cutshortcut.Detect(prog)

	ed := edits.ForMethod(ms["put"])
	if ed == nil || len(ed.Stores) != 1 || ed.Stores[0].Arg != 0 || ed.CutReturn {
		t.Errorf("put: want one setter cut, got %+v", ed)
	}
	ed = edits.ForMethod(ms["get"])
	if ed == nil || !ed.CutReturn || len(ed.RetFields) != 1 || ed.RetThis || len(ed.RetFormals) != 0 {
		t.Errorf("get: want getter cut, got %+v", ed)
	}
	ed = edits.ForMethod(ms["self"])
	if ed == nil || !ed.CutReturn || !ed.RetThis || len(ed.RetFields) != 0 || len(ed.RetFormals) != 0 {
		t.Errorf("self: want returned-receiver cut, got %+v", ed)
	}
	ed = edits.ForMethod(ms["id"])
	if ed == nil || !ed.CutReturn || len(ed.RetFormals) != 1 || ed.RetFormals[0] != 0 || ed.RetThis {
		t.Errorf("id: want returned-formal cut, got %+v", ed)
	}
	ed = edits.ForMethod(ms["fluentPut"])
	if ed == nil || !ed.CutReturn || !ed.RetThis || len(ed.Stores) != 1 {
		t.Errorf("fluentPut: want setter + returned-receiver cut, got %+v", ed)
	}
	if ed := edits.ForMethod(ms["fresh"]); ed != nil {
		t.Errorf("fresh: allocation must veto the cut, got %+v", ed)
	}
	if ed := edits.ForMethod(ms["escape"]); ed != nil {
		t.Errorf("escape: twice-used formal must veto the setter cut, got %+v", ed)
	}
	if ed := edits.ForMethod(ms["viaCall"]); ed != nil {
		t.Errorf("viaCall: call result must veto the cut, got %+v", ed)
	}
	if edits.Methods() != 5 {
		t.Errorf("Methods() = %d, want 5", edits.Methods())
	}
	if edits.Cuts() == 0 || edits.Shortcuts() == 0 {
		t.Errorf("expected non-zero cut/shortcut counters, got %d/%d", edits.Cuts(), edits.Shortcuts())
	}
}

// TestPrecisionOverInsensitive is the textbook cut-shortcut win: two
// cells, each put a distinct payload. The insensitive analysis merges
// both payloads through put's formal and get's return; the
// cut-shortcut analysis keeps them apart without any contexts.
func TestPrecisionOverInsensitive(t *testing.T) {
	b := ir.NewBuilder("cells")
	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	b.AddEntry(main.ID())

	cell := b.AddClass("Cell", ir.None, nil)
	slot := b.AddField(cell, "slot")
	put := b.AddMethod(cell, "put", "put", 1, true)
	put.Store(put.This(), slot, put.Formal(0))
	get := b.AddMethod(cell, "get", "get", 0, false)
	get.Load(get.Ret(), get.This(), slot)

	aCls := b.AddClass("A", ir.None, nil)
	bCls := b.AddClass("B", ir.None, nil)

	c1 := main.NewVar("c1", cell)
	c2 := main.NewVar("c2", cell)
	main.Alloc(c1, cell, "cell1")
	main.Alloc(c2, cell, "cell2")
	av := main.NewVar("a", aCls)
	bv := main.NewVar("b", bCls)
	ha := main.Alloc(av, aCls, "objA")
	hb := main.Alloc(bv, bCls, "objB")
	main.VCall(ir.None, c1, "put", av)
	main.VCall(ir.None, c2, "put", bv)
	x := main.NewVar("x", ir.None)
	y := main.NewVar("y", ir.None)
	main.VCall(x, c1, "get")
	main.VCall(y, c2, "get")
	prog := b.MustFinish()

	cs, err := solveCS(prog)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}

	if got := ins.VarHeaps(x); !got.Has(int32(ha)) || !got.Has(int32(hb)) {
		t.Fatalf("insens should conflate the cells: pt(x) = %v", got.Elems())
	}
	if got := cs.VarHeaps(x); !got.Has(int32(ha)) || got.Has(int32(hb)) {
		t.Errorf("cs should keep the cells apart: pt(x) = %v, want exactly {%d}", got.Elems(), ha)
	}
	if got := cs.VarHeaps(y); !got.Has(int32(hb)) || got.Has(int32(ha)) {
		t.Errorf("cs should keep the cells apart: pt(y) = %v, want exactly {%d}", got.Elems(), hb)
	}
	if cs.Analysis != "cs" {
		t.Errorf("Analysis = %q, want cs", cs.Analysis)
	}
}

// checkRefines asserts fine's results are a pointwise subset of
// coarse's: points-to per variable, reachable methods, and per-site
// call targets. It is the same property the pta package checks for its
// context-sensitive analyses; for cut-shortcut it is the soundness
// argument made testable — every cut is compensated, so nothing can
// *grow*, and anything that shrank is precision, not lost soundness.
func checkRefines(t *testing.T, label string, prog *ir.Program, fine, coarse *pta.Result) {
	t.Helper()
	for v := 0; v < prog.NumVars(); v++ {
		fs := fine.VarHeaps(ir.VarID(v))
		cs := coarse.VarHeaps(ir.VarID(v))
		ok := true
		fs.ForEach(func(h int32) {
			if !cs.Has(h) {
				ok = false
			}
		})
		if !ok {
			t.Errorf("%s: pt(%s) not a subset of insensitive: %v vs %v",
				label, prog.VarName(ir.VarID(v)), fs.Elems(), cs.Elems())
		}
	}
	for _, m := range fine.ReachableMethods() {
		if !coarse.MethodReachable(m) {
			t.Errorf("%s: %s reachable only under cut-shortcut", label, prog.MethodName(m))
		}
	}
	for i := 0; i < prog.NumInvos(); i++ {
		ct := map[ir.MethodID]bool{}
		for _, m := range coarse.InvoTargets(ir.InvoID(i)) {
			ct[m] = true
		}
		for _, m := range fine.InvoTargets(ir.InvoID(i)) {
			if !ct[m] {
				t.Errorf("%s: invo %s target %s only under cut-shortcut",
					label, prog.InvoName(ir.InvoID(i)), prog.MethodName(m))
			}
		}
	}
}

// TestCutShortcutRefinesInsensitive checks the soundness property over
// random programs: whatever flow shapes the generator emits, the edit
// set must never create facts the insensitive analysis lacks.
func TestCutShortcutRefinesInsensitive(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		ins, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := solveCS(prog)
		if err != nil {
			t.Fatal(err)
		}
		checkRefines(t, fmt.Sprintf("seed %d cs-vs-insens", seed), prog, cs, ins)
	}
}

// TestSuiteRefinesInsensitive runs the same refinement check on real
// suite benchmarks, where the generator's setter/getter shapes
// guarantee the edit set is non-trivial.
func TestSuiteRefinesInsensitive(t *testing.T) {
	for _, name := range []string{"antlr", "lusearch"} {
		prog := suite.MustLoad(name)
		if cutshortcut.Detect(prog).Methods() == 0 {
			t.Fatalf("%s: expected a non-empty edit set", name)
		}
		ins, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := solveCS(prog)
		if err != nil {
			t.Fatal(err)
		}
		checkRefines(t, name, prog, cs, ins)
		if cs.VarPTSize() >= ins.VarPTSize() {
			t.Errorf("%s: expected cs to shrink Σ|pt(var)|: cs %d vs insens %d",
				name, cs.VarPTSize(), ins.VarPTSize())
		}
	}
}

// TestDeterministic: two cut-shortcut solves of the same program must
// agree bit for bit — detection order and edit application are fully
// deterministic.
func TestDeterministic(t *testing.T) {
	prog := suite.MustLoad("antlr")
	run := func() *pta.Result {
		r, err := solveCS(prog)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Work != b.Work || a.VarPTSize() != b.VarPTSize() {
		t.Fatalf("non-deterministic: work %d vs %d, varPT %d vs %d", a.Work, b.Work, a.VarPTSize(), b.VarPTSize())
	}
	for v := 0; v < prog.NumVars(); v++ {
		if !a.VarHeaps(ir.VarID(v)).Equal(b.VarHeaps(ir.VarID(v))) {
			t.Fatalf("var %d points-to differs across runs", v)
		}
	}
}

// solveCS runs the cut-shortcut analysis over prog: the "cs" policy,
// which builds no contexts, with the edit set Detect finds.
func solveCS(prog *ir.Program) (*pta.Result, error) {
	tab := pta.NewTable()
	pol := pta.NewPolicy(pta.Spec{Flavor: pta.CutShortcut}, prog, tab)
	return pta.Solve(context.Background(), prog, pol, cutshortcut.Detect(prog), tab, pta.Options{Budget: -1})
}
