package dlpta

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/lang"
	"introspect/internal/pta"
	"introspect/internal/randprog"
)

// The tests in this file are the reproduction's differential check:
// the paper's Figure 3 rules evaluated on our Datalog engine must
// compute exactly the same points-to results as the hand-written
// native solver, for every context abstraction, on the same programs.

const kennelSrc = `
interface Animal { String speak(); }
class Dog implements Animal { String speak() { return "woof"; } }
class Cat implements Animal { String speak() { return "meow"; } }
class Kennel {
  Animal resident;
  Kennel(Animal a) { this.resident = a; }
  Animal get() { return this.resident; }
}
class Registry {
  static Object cache;
  static void put(Object o) { Registry.cache = o; }
  static Object get() { return Registry.cache; }
}
class EmptyKennel { }
class Main {
  static Kennel makeKennel(Animal a) { return new Kennel(a); }
  static Animal check(Kennel k) {
    Animal a = k.get();
    if (a == null) { throw new EmptyKennel(); }
    return a;
  }
  static void main() {
    try {
      Animal checked = check(makeKennel(new Dog()));
      print(checked);
    } catch (EmptyKennel ex) {
      print(ex);
    }
    Kennel k1 = makeKennel(new Dog());
    Kennel k2 = makeKennel(new Cat());
    Animal a1 = k1.get();
    Animal a2 = k2.get();
    String s = a1.speak();
    Dog d = (Dog) a1;
    Registry.put(a2);
    Object o = Registry.get();
    Object[] arr = new Object[2];
    arr[0] = a1;
    Object e = arr[1];
    print(s);
    print(o);
    print(e);
  }
}`

// buildChains constructs a program with deeper call structure so that
// 2-deep contexts differ from 1-deep ones.
func buildChains(t *testing.T) *ir.Program {
	t.Helper()
	return lang.MustCompile("chains", `
class Box {
  Object f;
  void set(Object x) { this.f = x; }
  Object get() { return this.f; }
}
class Maker {
  Box make() { return new Box(); }
}
class Main {
  static void main() {
    Maker m1 = new Maker();
    Maker m2 = new Maker();
    Box b1 = m1.make();
    Box b2 = m2.make();
    b1.set(new Main());
    b2.set(new Maker());
    Object g1 = b1.get();
    Object g2 = b2.get();
    print(g1);
    print(g2);
  }
}`)
}

func compare(t *testing.T, prog *ir.Program, spec string, h introspect.Heuristic) {
	t.Helper()

	// Native solver, through the pipeline layer. With a heuristic, the
	// pipeline runs the full introspective staging; its selection is
	// then handed verbatim to the Datalog side, so both implementations
	// refine exactly the same exclusion sets.
	var sel analysis.Selector
	if h != nil {
		sel = analysis.HeuristicSelector(h)
	}
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: spec}, Selector: sel, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	native := res.Main
	var ref *pta.Refinement
	if h != nil {
		ref = res.Selection.Refinement
	}

	// Datalog.
	dl, err := New(prog, spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Run(); err != nil {
		t.Fatal(err)
	}

	// Compare context-insensitive VarPointsTo projections.
	for v := 0; v < prog.NumVars(); v++ {
		nat := native.VarHeaps(ir.VarID(v))
		got := dl.VarHeaps(ir.VarID(v))
		if !nat.Equal(got) {
			t.Errorf("%s: VarHeaps(%s) differ: native %v, datalog %v",
				spec, prog.VarName(ir.VarID(v)), nat.Elems(), got.Elems())
		}
	}

	// Compare reachable methods.
	natReach := map[ir.MethodID]bool{}
	for _, m := range native.ReachableMethods() {
		natReach[m] = true
	}
	dlReach := map[ir.MethodID]bool{}
	dl.ReachableMethods().ForEach(func(m int32) { dlReach[ir.MethodID(m)] = true })
	for m := range natReach {
		if !dlReach[m] {
			t.Errorf("%s: %s reachable natively but not in datalog", spec, prog.MethodName(m))
		}
	}
	for m := range dlReach {
		if !natReach[m] {
			t.Errorf("%s: %s reachable in datalog but not natively", spec, prog.MethodName(m))
		}
	}

	// Compare call-graph targets per invocation site.
	for i := 0; i < prog.NumInvos(); i++ {
		nat := map[ir.MethodID]bool{}
		for _, m := range native.InvoTargets(ir.InvoID(i)) {
			nat[m] = true
		}
		got := map[ir.MethodID]bool{}
		dl.InvoTargets(ir.InvoID(i)).ForEach(func(m int32) { got[ir.MethodID(m)] = true })
		if len(nat) != len(got) {
			t.Errorf("%s: invo %s targets differ: native %d, datalog %d",
				spec, prog.InvoName(ir.InvoID(i)), len(nat), len(got))
			continue
		}
		for m := range nat {
			if !got[m] {
				t.Errorf("%s: invo %s target %s missing in datalog",
					spec, prog.InvoName(ir.InvoID(i)), prog.MethodName(m))
			}
		}
	}
}

func TestEquivalenceKennel(t *testing.T) {
	prog := lang.MustCompile("kennel", kennelSrc)
	for _, spec := range []string{"insens", "1call", "1callH", "2callH", "1obj", "2objH", "2typeH", "2hybH"} {
		t.Run(spec, func(t *testing.T) { compare(t, prog, spec, nil) })
	}
}

func TestEquivalenceChains(t *testing.T) {
	prog := buildChains(t)
	for _, spec := range []string{"insens", "2objH", "2callH", "2typeH", "1objH"} {
		t.Run(spec, func(t *testing.T) { compare(t, prog, spec, nil) })
	}
}

// tinyHeuristics are tiny-threshold heuristics: they exclude plenty of
// elements, giving the refined rules real work.
var tinyHeuristics = map[string]introspect.Heuristic{
	"tinyA": introspect.HeuristicA{K: 1, L: 1, M: 1},
	"tinyB": introspect.HeuristicB{P: 3, Q: 2},
}

// TestEquivalenceIntrospective checks the refined-constructor rules:
// both implementations must agree when refinement-exclusion sets are
// in play.
func TestEquivalenceIntrospective(t *testing.T) {
	prog := lang.MustCompile("kennel", kennelSrc)
	for name, h := range tinyHeuristics {
		for _, spec := range []string{"2objH", "2callH"} {
			t.Run(name+"/"+spec, func(t *testing.T) { compare(t, prog, spec, h) })
		}
	}
}

// TestEquivalenceRandprog runs the differential check on random
// programs: randprog seeds 1–40 under each context abstraction, and
// under the tiny heuristics for the deep object-, call- and
// type-sensitive specs.
func TestEquivalenceRandprog(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			for _, spec := range []string{"insens", "1call", "2callH", "1obj", "2objH", "2typeH", "2hybH"} {
				t.Run(spec, func(t *testing.T) { compare(t, prog, spec, nil) })
			}
			for name, h := range tinyHeuristics {
				for _, spec := range []string{"2objH", "2callH", "2typeH"} {
					t.Run(name+"/"+spec, func(t *testing.T) { compare(t, prog, spec, h) })
				}
			}
		})
	}
}

// TestDatalogCountsMatchModel sanity-checks relation sizes: every
// VarPointsTo the native solver derives must appear (projected) in the
// Datalog result, so sizes cannot be smaller.
func TestDatalogSizes(t *testing.T) {
	prog := buildChains(t)
	dl, err := New(prog, "2objH", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Run(); err != nil {
		t.Fatal(err)
	}
	if dl.NumVarPointsTo() == 0 {
		t.Fatal("datalog derived no VarPointsTo facts")
	}
	nres, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	native := nres.Main
	if int64(dl.NumVarPointsTo()) != native.VarPTSize() {
		t.Errorf("context-qualified VarPointsTo sizes differ: datalog %d, native %d",
			dl.NumVarPointsTo(), native.VarPTSize())
	}
}

// TestDatalogMetricsMatchNative: the paper's Section 3 Datalog metric
// queries must agree with the native metric computation of
// internal/introspect on the insensitive result.
func TestDatalogMetricsMatchNative(t *testing.T) {
	prog := lang.MustCompile("kennel", kennelSrc)
	dl, err := New(prog, "insens", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.AddMetrics(); err != nil {
		t.Fatal(err)
	}
	if err := dl.Run(); err != nil {
		t.Fatal(err)
	}
	nres, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := introspect.Compute(nres.Main)

	inflow := dl.InFlow()
	for i := range inflow {
		if inflow[i] != m.InFlow[i] {
			t.Errorf("InFlow(%s): datalog %d, native %d",
				prog.InvoName(ir.InvoID(i)), inflow[i], m.InFlow[i])
		}
	}
	pbv := dl.PointedByVars()
	for h := range pbv {
		if pbv[h] != m.PointedByVars[h] {
			t.Errorf("PointedByVars(%s): datalog %d, native %d",
				prog.HeapName(ir.HeapID(h)), pbv[h], m.PointedByVars[h])
		}
	}
}

// TestExplainPointsTo: the provenance machinery produces a proof tree
// for a points-to fact, rooted at the fact and bottoming out in EDB
// facts.
func TestExplainPointsTo(t *testing.T) {
	prog := lang.MustCompile("explain", `
class Box {
  Object f;
  void set(Object x) { this.f = x; }
  Object get() { return this.f; }
}
class Main {
  static void main() {
    Box b = new Box();
    b.set(new Main());
    Object o = b.get();
    print(o);
  }
}`)
	dl, err := New(prog, "insens", nil)
	if err != nil {
		t.Fatal(err)
	}
	dl.EnableProvenance()
	if err := dl.Run(); err != nil {
		t.Fatal(err)
	}
	// Find o and the Main allocation.
	var o ir.VarID = ir.None
	for v := range prog.Vars {
		if prog.Vars[v].Name == "o" && prog.MethodName(prog.Vars[v].Method) == "Main.main" {
			o = ir.VarID(v)
		}
	}
	var hMain ir.HeapID = ir.None
	for h := range prog.Heaps {
		if prog.TypeName(prog.HeapType(ir.HeapID(h))) == "Main" {
			hMain = ir.HeapID(h)
		}
	}
	if o == ir.None || hMain == ir.None {
		t.Fatal("test fixtures not found")
	}
	proof, ok := dl.ExplainVarPointsTo(o, hMain)
	if !ok {
		t.Fatal("no derivation for o -> Main allocation")
	}
	// The proof must pass through the load rule (FldPointsTo) and
	// bottom out in Alloc facts.
	for _, want := range []string{"VarPointsTo", "FldPointsTo", "Alloc", "[fact]"} {
		if !strings.Contains(proof, want) {
			t.Errorf("proof missing %q:\n%s", want, proof)
		}
	}
	// Asking about an impossible fact fails cleanly.
	if _, ok := dl.ExplainVarPointsTo(o, ir.HeapID(0)); ok {
		var bad ir.HeapID
		for h := range prog.Heaps {
			if prog.TypeName(prog.HeapType(ir.HeapID(h))) == "Box" {
				bad = ir.HeapID(h)
			}
		}
		if proof2, ok2 := dl.ExplainVarPointsTo(o, bad); ok2 {
			t.Errorf("o should not point to a Box:\n%s", proof2)
		}
	}
}
