package ir

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// buildHierarchy constructs:
//
//	interface I { m }
//	class A implements I { m, n }
//	class B extends A { m }        (overrides m, inherits n)
//	class C extends B { }          (inherits everything)
func buildHierarchy(t *testing.T) (*Program, map[string]TypeID, map[string]MethodID) {
	t.Helper()
	b := NewBuilder("hier")
	i := b.AddInterface("I", nil)
	a := b.AddClass("A", None, []TypeID{i})
	bb := b.AddClass("B", a, nil)
	c := b.AddClass("C", bb, nil)

	am := b.AddMethod(a, "m", "m", 0, true)
	an := b.AddMethod(a, "n", "n", 0, true)
	bm := b.AddMethod(bb, "m", "m", 0, true)

	mainCls := b.AddClass("Main", None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	v := main.NewVar("v", c)
	main.Alloc(v, c, "hC")
	main.VCall(None, v, "m")
	b.AddEntry(main.ID())

	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]TypeID{"I": i, "A": a, "B": bb, "C": c}
	meths := map[string]MethodID{"A.m": am.ID(), "A.n": an.ID(), "B.m": bm.ID()}
	return prog, types, meths
}

func TestSubtyping(t *testing.T) {
	prog, types, _ := buildHierarchy(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"C", "C", true}, {"C", "B", true}, {"C", "A", true}, {"C", "I", true},
		{"B", "A", true}, {"B", "I", true}, {"A", "I", true},
		{"A", "B", false}, {"I", "A", false}, {"B", "C", false},
	}
	for _, tc := range cases {
		if got := prog.SubtypeOf(types[tc.sub], types[tc.super]); got != tc.want {
			t.Errorf("SubtypeOf(%s, %s) = %v, want %v", tc.sub, tc.super, got, tc.want)
		}
	}
	// Everything is a subtype of Object.
	for name, id := range types {
		if name == "I" {
			continue // interfaces are not classes in the IR hierarchy
		}
		if !prog.SubtypeOf(id, prog.ObjectType) {
			t.Errorf("%s should be a subtype of Object", name)
		}
	}
}

func TestDispatchLookup(t *testing.T) {
	prog, types, meths := buildHierarchy(t)
	sigM := SigID(-1)
	for s, name := range prog.Sigs {
		if name == "m/0" {
			sigM = SigID(s)
		}
	}
	if sigM == None {
		t.Fatal("sig m/0 not found")
	}
	if got := prog.Lookup(types["A"], sigM); got != meths["A.m"] {
		t.Errorf("Lookup(A, m) = %v, want A.m", got)
	}
	if got := prog.Lookup(types["B"], sigM); got != meths["B.m"] {
		t.Errorf("Lookup(B, m) = %v, want B.m (override)", got)
	}
	if got := prog.Lookup(types["C"], sigM); got != meths["B.m"] {
		t.Errorf("Lookup(C, m) = %v, want B.m (inherited override)", got)
	}
	// n is inherited from A everywhere.
	var sigN SigID = None
	for s, name := range prog.Sigs {
		if name == "n/0" {
			sigN = SigID(s)
		}
	}
	if got := prog.Lookup(types["C"], sigN); got != meths["A.n"] {
		t.Errorf("Lookup(C, n) = %v, want A.n", got)
	}
	// Unknown signature.
	if got := prog.Lookup(types["C"], prog.Sigs2SigID(t, "nosuch/0")); got != None {
		t.Errorf("Lookup of unknown sig = %v, want None", got)
	}
}

// Sigs2SigID is a test helper that interns a signature post-hoc; since
// Program is frozen it only searches.
func (p *Program) Sigs2SigID(t *testing.T, s string) SigID {
	for i, name := range p.Sigs {
		if name == s {
			return SigID(i)
		}
	}
	return SigID(len(p.Sigs) + 1000) // deliberately invalid
}

func TestHierarchyCycleDetected(t *testing.T) {
	b := NewBuilder("cycle")
	// Force a cycle by post-editing is not possible through the API;
	// interfaces extending each other must be created in order, so a
	// cycle cannot be expressed. Verify instead that Finish rejects a
	// program with no entry points.
	cls := b.AddClass("A", None, nil)
	_ = cls
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Errorf("expected no-entry error, got %v", err)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	// Wrong-arity direct call.
	b := NewBuilder("bad")
	cls := b.AddClass("A", None, nil)
	callee := b.AddStaticMethod(cls, "f", 2, true)
	main := b.AddStaticMethod(cls, "main", 0, true)
	v := main.NewVar("v", None)
	main.Alloc(v, cls, "")
	main.Call(None, callee.ID(), None, v) // 1 arg, wants 2
	b.AddEntry(main.ID())
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "args") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestAllocAbstractRejected(t *testing.T) {
	b := NewBuilder("abs")
	a := b.AddAbstractClass("Abs", None, nil)
	main := b.AddStaticMethod(a, "main", 0, true)
	v := main.NewVar("v", a)
	main.Alloc(v, a, "")
	b.AddEntry(main.ID())
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "abstract") {
		t.Errorf("expected abstract-allocation error, got %v", err)
	}
}

func TestStats(t *testing.T) {
	prog, _, _ := buildHierarchy(t)
	st := prog.Stats()
	if st.Types != 6 { // Object, I, A, B, C, Main
		t.Errorf("Stats.Types = %d, want 6", st.Types)
	}
	if st.Methods != 4 || st.Allocs != 1 || st.Calls != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if !strings.Contains(st.String(), "types=6") {
		t.Errorf("Stats.String = %q", st.String())
	}
}

func TestVarsOfAndNames(t *testing.T) {
	prog, _, _ := buildHierarchy(t)
	var main MethodID = None
	for m := range prog.Methods {
		if prog.Methods[m].Name == "Main.main" {
			main = MethodID(m)
		}
	}
	// Every method owns its declared vars plus the synthetic exc var.
	vars := prog.VarsOf(main)
	if len(vars) != 2 || prog.Vars[vars[0]].Name != "exc" || prog.Vars[vars[1]].Name != "v" {
		t.Errorf("VarsOf(main) = %v", vars)
	}
	if got := prog.VarName(vars[1]); got != "Main.main.v" {
		t.Errorf("VarName = %q", got)
	}
	if prog.TypeName(None) != "<none>" {
		t.Errorf("TypeName(None) = %q", prog.TypeName(None))
	}
	if prog.HeapName(0) == "" || prog.InvoName(0) == "" {
		t.Error("names should be non-empty")
	}
}

func TestBuilderDuplicateType(t *testing.T) {
	b := NewBuilder("dup")
	b.AddClass("A", None, nil)
	b.AddClass("A", None, nil)
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate-type error, got %v", err)
	}
}

func TestTypeByName(t *testing.T) {
	b := NewBuilder("x")
	a := b.AddClass("A", None, nil)
	if b.TypeByName("A") != a {
		t.Error("TypeByName(A) wrong")
	}
	if b.TypeByName("nope") != None {
		t.Error("TypeByName of unknown should be None")
	}
}

// TestExtend: a Builder from Extend changes a copy. Finished unchanged
// it reproduces its base; an edit keeps every base id, and neither the
// base nor a copy built earlier from it changes, even where an edited
// instruction list has spare capacity in the base.
func TestExtend(t *testing.T) {
	b := NewBuilder("base")
	cls := b.AddClass("A", None, nil)
	main := b.AddStaticMethod(cls, "main", 0, true)
	x, y := main.NewVar("x", cls), main.NewVar("y", None)
	main.Alloc(x, cls, "")
	for i := 0; i < 3; i++ {
		main.Move(y, x)
	}
	get := b.AddStaticMethod(cls, "get", 0, false)
	b.AddEntry(main.ID())
	base := b.MustFinish()
	if ms := base.Methods[main.ID()].Moves; cap(ms) == len(ms) {
		t.Fatalf("main's moves have no spare capacity (len %d), so the test shows nothing", len(ms))
	}
	dump := func(p *Program) string { return fmt.Sprintf("%v", *p) }
	before := dump(base)
	if same, err := base.Extend().Finish(); err != nil || dump(same) != before {
		t.Fatalf("an unchanged extension differs from its base (err %v)", err)
	}

	extend := func(root string, to VarID) (*Program, TypeID) {
		e := base.Extend()
		if e.TypeByName("A") != cls || e.Sig("get/0") != base.Methods[get.ID()].Sig {
			t.Fatal("Extend does not index the base's types and signatures")
		}
		r := e.AddRootClass(root)
		mb := e.Method(main.ID())
		v := mb.NewVar(root, None)
		mb.Alloc(v, r, "")
		mb.Move(to, v)
		gb := e.Method(get.ID())
		gb.SetRet(gb.NewVar("r", None))
		p, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return p, r
	}
	first, r := extend("R1", y)
	firstDump := dump(first)
	extend("R2", x)
	if dump(base) != before {
		t.Error("extending changed the base program")
	}
	if dump(first) != firstDump {
		t.Error("a second extension changed the first one's program")
	}
	if first.SubtypeOf(r, first.ObjectType) {
		t.Error("a root class extends Object")
	}
	if got := first.Methods[main.ID()].Moves; len(got) != 4 || got[3].To != y {
		t.Errorf("main's moves = %v, want the base's three and one more", got)
	}

	e := base.Extend()
	e.Method(main.ID()).SetRet(x)
	if _, err := e.Finish(); err == nil || !strings.Contains(err.Error(), "void") {
		t.Errorf("SetRet on a void method: error %v, want one naming it void", err)
	}
}

// TestExtendConcurrently: Extend and Method only read the base program,
// so builders extending one program may run at once, even where an
// edited list has spare capacity in the base (run with -race).
func TestExtendConcurrently(t *testing.T) {
	b := NewBuilder("base")
	cls := b.AddClass("A", None, nil)
	main := b.AddStaticMethod(cls, "main", 0, true)
	x := main.NewVar("x", cls)
	for i := 0; i < 3; i++ {
		main.Move(x, x)
	}
	b.AddEntry(main.ID())
	base := b.MustFinish()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := base.Extend()
			mb := e.Method(main.ID())
			mb.Move(mb.NewVar("v", None), x)
			if _, err := e.Finish(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
