package pta

import (
	"context"
	"errors"
	"testing"

	"introspect/internal/ir"
)

// buildIdentity builds the classic context-sensitivity example:
//
//	class A { Object id(Object x) { return x; } }
//	main() {
//	  a  = new A;      // heap hA
//	  o1 = new Object; // heap h1
//	  o2 = new Object; // heap h2
//	  r1 = a.id(o1);
//	  r2 = a.id(o2);
//	}
//
// A context-insensitive analysis conflates r1 and r2; 1-call-site
// sensitivity separates them; 1-object sensitivity does not (same
// receiver object for both calls).
func buildIdentity(t *testing.T) (*ir.Program, map[string]ir.VarID, map[string]ir.HeapID) {
	t.Helper()
	b := ir.NewBuilder("identity")
	clsA := b.AddClass("A", ir.None, nil)
	id := b.AddMethod(clsA, "id", "id", 1, false)
	id.Move(id.Ret(), id.Formal(0))

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	a := main.NewVar("a", clsA)
	o1 := main.NewVar("o1", ir.None)
	o2 := main.NewVar("o2", ir.None)
	r1 := main.NewVar("r1", ir.None)
	r2 := main.NewVar("r2", ir.None)
	hA := main.Alloc(a, clsA, "hA")
	h1 := main.Alloc(o1, b.TypeByName("Object"), "h1")
	h2 := main.Alloc(o2, b.TypeByName("Object"), "h2")
	main.VCall(r1, a, "id", o1)
	main.VCall(r2, a, "id", o2)
	b.AddEntry(main.ID())

	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]ir.VarID{"a": a, "o1": o1, "o2": o2, "r1": r1, "r2": r2}
	heaps := map[string]ir.HeapID{"hA": hA, "h1": h1, "h2": h2}
	return prog, vars, heaps
}

func analyze(t *testing.T, prog *ir.Program, name string) *Result {
	t.Helper()
	res, err := Analyze(context.Background(), prog, name, Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("%s unexpectedly timed out", name)
	}
	return res
}

// mustSolve runs the solver with a background context and fails the
// test on any error.
func mustSolve(t *testing.T, prog *ir.Program, pol Policy, tab *Table, opts Options) *Result {
	t.Helper()
	res, err := Solve(context.Background(), prog, pol, nil, tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func heapSet(t *testing.T, r *Result, v ir.VarID) map[ir.HeapID]bool {
	t.Helper()
	out := map[ir.HeapID]bool{}
	r.VarHeaps(v).ForEach(func(h int32) { out[ir.HeapID(h)] = true })
	return out
}

func TestInsensitiveConflates(t *testing.T) {
	prog, vars, heaps := buildIdentity(t)
	res := analyze(t, prog, "insens")
	for _, v := range []string{"r1", "r2"} {
		got := heapSet(t, res, vars[v])
		if !got[heaps["h1"]] || !got[heaps["h2"]] || len(got) != 2 {
			t.Errorf("insens %s: got %v, want {h1, h2}", v, got)
		}
	}
}

func TestCallSiteSeparates(t *testing.T) {
	prog, vars, heaps := buildIdentity(t)
	res := analyze(t, prog, "1call")
	r1 := heapSet(t, res, vars["r1"])
	r2 := heapSet(t, res, vars["r2"])
	if len(r1) != 1 || !r1[heaps["h1"]] {
		t.Errorf("1call r1: got %v, want {h1}", r1)
	}
	if len(r2) != 1 || !r2[heaps["h2"]] {
		t.Errorf("1call r2: got %v, want {h2}", r2)
	}
}

func TestObjectSensitivityDoesNotSeparateSharedReceiver(t *testing.T) {
	prog, vars, heaps := buildIdentity(t)
	res := analyze(t, prog, "1obj")
	r1 := heapSet(t, res, vars["r1"])
	if len(r1) != 2 || !r1[heaps["h1"]] || !r1[heaps["h2"]] {
		t.Errorf("1obj r1: got %v, want {h1, h2}", r1)
	}
}

// buildWrapped builds the dual example where object-sensitivity wins:
// two distinct receiver objects, each with its own payload flowing
// through a field.
//
//	class Box { Object f; void set(Object x) { this.f = x; }
//	            Object get() { return this.f; } }
//	main() {
//	  b1 = new Box; b2 = new Box;
//	  b1.set(new Object /*h1*/); b2.set(new Object /*h2*/);
//	  g1 = b1.get(); g2 = b2.get();
//	}
func buildWrapped(t *testing.T) (*ir.Program, map[string]ir.VarID, map[string]ir.HeapID) {
	t.Helper()
	b := ir.NewBuilder("wrapped")
	box := b.AddClass("Box", ir.None, nil)
	f := b.AddField(box, "f")

	set := b.AddMethod(box, "set", "set", 1, true)
	set.Store(set.This(), f, set.Formal(0))
	get := b.AddMethod(box, "get", "get", 0, false)
	get.Load(get.Ret(), get.This(), f)

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	b1 := main.NewVar("b1", box)
	b2 := main.NewVar("b2", box)
	o1 := main.NewVar("o1", ir.None)
	o2 := main.NewVar("o2", ir.None)
	g1 := main.NewVar("g1", ir.None)
	g2 := main.NewVar("g2", ir.None)
	main.Alloc(b1, box, "hb1")
	main.Alloc(b2, box, "hb2")
	h1 := main.Alloc(o1, b.TypeByName("Object"), "h1")
	h2 := main.Alloc(o2, b.TypeByName("Object"), "h2")
	main.VCall(ir.None, b1, "set", o1)
	main.VCall(ir.None, b2, "set", o2)
	main.VCall(g1, b1, "get")
	main.VCall(g2, b2, "get")
	b.AddEntry(main.ID())

	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]ir.VarID{"g1": g1, "g2": g2}
	heaps := map[string]ir.HeapID{"h1": h1, "h2": h2}
	return prog, vars, heaps
}

func TestObjectSensitivitySeparatesDistinctReceivers(t *testing.T) {
	prog, vars, heaps := buildWrapped(t)

	// Insensitively, set's formal accumulates both payloads and this
	// accumulates both receivers, so the cross-product conflates the two
	// boxes' fields.
	ins := analyze(t, prog, "insens")
	g1 := heapSet(t, ins, vars["g1"])
	if len(g1) != 2 {
		t.Errorf("insens g1: got %v, want {h1, h2} (conflated cross-product)", g1)
	}

	// 1-object sensitivity analyzes set/get once per receiver object,
	// and this-binding is per receiver, so the boxes are separated.
	obj := analyze(t, prog, "1obj")
	g1 = heapSet(t, obj, vars["g1"])
	g2 := heapSet(t, obj, vars["g2"])
	if len(g1) != 1 || !g1[heaps["h1"]] {
		t.Errorf("1obj g1: got %v, want {h1}", g1)
	}
	if len(g2) != 1 || !g2[heaps["h2"]] {
		t.Errorf("1obj g2: got %v, want {h2}", g2)
	}
}

// TestSharedBoxNeedsHeapContext: one allocation site creates two boxes
// through a factory method; only a context-sensitive heap (e.g. 1objH,
// 2objH) can separate the field cells of the two boxes.
func TestSharedBoxNeedsHeapContext(t *testing.T) {
	b := ir.NewBuilder("factory")
	box := b.AddClass("Box", ir.None, nil)
	f := b.AddField(box, "f")
	set := b.AddMethod(box, "set", "set", 1, true)
	set.Store(set.This(), f, set.Formal(0))
	get := b.AddMethod(box, "get", "get", 0, false)
	get.Load(get.Ret(), get.This(), f)

	util := b.AddClass("Util", ir.None, nil)
	mk := b.AddStaticMethod(util, "mkBox", 0, false)
	bx := mk.NewVar("bx", box)
	mk.Alloc(bx, box, "hbox") // ONE allocation site for all boxes
	mk.Move(mk.Ret(), bx)

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	b1 := main.NewVar("b1", box)
	b2 := main.NewVar("b2", box)
	o1 := main.NewVar("o1", ir.None)
	o2 := main.NewVar("o2", ir.None)
	g1 := main.NewVar("g1", ir.None)
	g2 := main.NewVar("g2", ir.None)
	main.Call(b1, mk.ID(), ir.None)
	main.Call(b2, mk.ID(), ir.None)
	h1 := main.Alloc(o1, b.TypeByName("Object"), "h1")
	main.Alloc(o2, b.TypeByName("Object"), "h2")
	main.VCall(ir.None, b1, "set", o1)
	main.VCall(ir.None, b2, "set", o2)
	main.VCall(g1, b1, "get")
	main.VCall(g2, b2, "get")
	b.AddEntry(main.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Insensitively the single allocation site conflates both boxes.
	ins := analyze(t, prog, "insens")
	if got := heapSet(t, ins, g1); len(got) != 2 {
		t.Errorf("insens g1: got %v, want 2 heaps (conflated)", got)
	}
	// 1callH separates: the factory is called from two sites, and the
	// heap context records the allocating method's context.
	ch := analyze(t, prog, "1callH")
	got1 := heapSet(t, ch, g1)
	if len(got1) != 1 || !got1[h1] {
		t.Errorf("1callH g1: got %v, want {h1}", got1)
	}
}

func TestVirtualDispatchAndCast(t *testing.T) {
	b := ir.NewBuilder("dispatch")
	animal := b.AddInterface("Animal", nil)
	dog := b.AddClass("Dog", ir.None, []ir.TypeID{animal})
	cat := b.AddClass("Cat", ir.None, []ir.TypeID{animal})

	// Each speak() allocates and returns its own sound object.
	dogSound := b.AddClass("Woof", ir.None, nil)
	catSound := b.AddClass("Meow", ir.None, nil)
	ds := b.AddMethod(dog, "speak", "speak", 0, false)
	v1 := ds.NewVar("s", dogSound)
	hWoof := ds.Alloc(v1, dogSound, "hWoof")
	ds.Move(ds.Ret(), v1)
	cs := b.AddMethod(cat, "speak", "speak", 0, false)
	v2 := cs.NewVar("s", catSound)
	cs.Alloc(v2, catSound, "hMeow")
	cs.Move(cs.Ret(), v2)

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	d := main.NewVar("d", dog)
	a := main.NewVar("a", animal)
	s1 := main.NewVar("s1", ir.None)
	s2 := main.NewVar("s2", ir.None)
	cst := main.NewVar("cst", dogSound)
	main.Alloc(d, dog, "hDog")
	main.Move(a, d)
	c := main.NewVar("c", cat)
	main.Alloc(c, cat, "hCat")
	main.Move(a, c) // a points to both Dog and Cat
	invo := main.VCall(s1, a, "speak")
	main.VCall(s2, d, "speak")
	main.Cast(cst, s1, dogSound) // (Woof) s1
	b.AddEntry(main.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	res := analyze(t, prog, "insens")
	// a.speak() dispatches to both implementations.
	if n := res.NumInvoTargets(invo); n != 2 {
		t.Errorf("invo targets: got %d, want 2", n)
	}
	// s1 sees both sounds; the cast filters to Woof only.
	if got := heapSet(t, res, s1); len(got) != 2 {
		t.Errorf("s1: got %v, want both sounds", got)
	}
	gotCast := heapSet(t, res, cst)
	if len(gotCast) != 1 || !gotCast[hWoof] {
		t.Errorf("cast: got %v, want {hWoof}", gotCast)
	}
	// d.speak() is monomorphic: s2 = {hWoof}.
	gotS2 := heapSet(t, res, s2)
	if len(gotS2) != 1 || !gotS2[hWoof] {
		t.Errorf("s2: got %v, want {hWoof}", gotS2)
	}
	// All four methods reachable (main + 2 speaks... plus none other).
	if n := res.NumReachableMethods(); n != 3 {
		t.Errorf("reachable: got %d, want 3", n)
	}
}

func TestStaticFieldsFlow(t *testing.T) {
	b := ir.NewBuilder("statics")
	cls := b.AddClass("G", ir.None, nil)
	sf := b.AddField(cls, "cache") // used as a static field
	main := b.AddStaticMethod(cls, "main", 0, true)
	o := main.NewVar("o", ir.None)
	x := main.NewVar("x", ir.None)
	h := main.Alloc(o, b.TypeByName("Object"), "h")
	main.SStore(sf, o)
	main.SLoad(x, sf)
	b.AddEntry(main.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res := analyze(t, prog, "2objH")
	got := heapSet(t, res, x)
	if len(got) != 1 || !got[h] {
		t.Errorf("static flow: got %v, want {h}", got)
	}
}

func TestBudgetTimeout(t *testing.T) {
	prog, _, _ := buildIdentity(t)
	res, err := Analyze(context.Background(), prog, "insens", Options{Budget: 3})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded with tiny budget, got %v", err)
	}
	if res == nil || res.Complete {
		t.Error("budget-exhausted run should return an incomplete partial result")
	}
}

func TestTypeSensitivityCoarserThanObject(t *testing.T) {
	// Two Box allocation sites in the SAME class: type-sensitivity
	// merges their contexts, object-sensitivity separates them.
	b := ir.NewBuilder("typecoarse")
	box := b.AddClass("Box", ir.None, nil)
	f := b.AddField(box, "f")
	set := b.AddMethod(box, "set", "set", 1, true)
	set.Store(set.This(), f, set.Formal(0))
	get := b.AddMethod(box, "get", "get", 0, false)
	get.Load(get.Ret(), get.This(), f)

	// Box allocations happen inside a helper so that the *method
	// context* (what 1obj/1type distinguish) matters for Record: each
	// box's object identity is still distinct here, so to create real
	// conflation we share one allocation via a factory (as in
	// TestSharedBoxNeedsHeapContext) and compare 1objH vs 1typeH.
	util := b.AddClass("UtilA", ir.None, nil)
	mk := b.AddStaticMethod(util, "mkBox", 0, false)
	bx := mk.NewVar("bx", box)
	mk.Alloc(bx, box, "hbox")
	mk.Move(mk.Ret(), bx)

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	// Call mkBox via two different wrapper receivers allocated in main:
	// under 2objH the factory's heap context is the wrapper's allocation
	// site (distinct); under 2typeH it is the wrapper's declaring class
	// — also distinct here. To get divergence, the two wrappers must be
	// instances of classes allocated in the same class but distinct
	// sites. We allocate two wrappers of the SAME class W at two sites.
	w := b.AddClass("W", ir.None, nil)
	mkw := b.AddMethod(w, "make", "make", 0, false)
	wbx := mkw.NewVar("wbx", box)
	mkw.Call(wbx, mk.ID(), ir.None)
	mkw.Move(mkw.Ret(), wbx)

	w1 := main.NewVar("w1", w)
	w2 := main.NewVar("w2", w)
	main.Alloc(w1, w, "hw1")
	main.Alloc(w2, w, "hw2")
	b1 := main.NewVar("b1", box)
	b2 := main.NewVar("b2", box)
	main.VCall(b1, w1, "make")
	main.VCall(b2, w2, "make")
	o1 := main.NewVar("o1", ir.None)
	o2 := main.NewVar("o2", ir.None)
	h1 := main.Alloc(o1, b.TypeByName("Object"), "h1")
	main.Alloc(o2, b.TypeByName("Object"), "h2")
	main.VCall(ir.None, b1, "set", o1)
	main.VCall(ir.None, b2, "set", o2)
	g1 := main.NewVar("g1", ir.None)
	main.VCall(g1, b1, "get")
	b.AddEntry(main.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// 2objH: w1/w2 allocation sites differ -> factory runs in two heap
	// contexts -> the two boxes are distinct -> g1 = {h1}.
	obj := analyze(t, prog, "2objH")
	gotObj := heapSet(t, obj, g1)
	if len(gotObj) != 1 || !gotObj[h1] {
		t.Errorf("2objH g1: got %v, want {h1}", gotObj)
	}
	// 2typeH: both wrappers are class W allocated in class Main -> same
	// type context -> boxes conflated -> g1 = {h1, h2}.
	ty := analyze(t, prog, "2typeH")
	gotTy := heapSet(t, ty, g1)
	if len(gotTy) != 2 {
		t.Errorf("2typeH g1: got %v, want 2 heaps (conflated)", gotTy)
	}
}
