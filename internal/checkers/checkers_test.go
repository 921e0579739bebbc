package checkers_test

import (
	"context"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/ir"
	"introspect/internal/lang"
	"introspect/internal/pta"
	"introspect/internal/taint"
)

// The test subject exercises every checker: a conflated Holder pair
// (may-fail cast + conflation hotspots), a never-written Chest field
// (empty dereference), a dead class, and both monomorphic and
// polymorphic dispatch (devirtualization).
const src = `
interface Shape { Object describe(); }
class Circle implements Shape {
  Object describe() { return new Circle(); }
}
class Rect implements Shape {
  Object describe() { return new Rect(); }
}
class Holder {
  Object o;
  void put(Object x) { this.o = x; }
  Object get() { return this.o; }
}
class Chest {
  Object hidden;
  Object peek() { return this.hidden; }
}
class Unused {
  void never() { }
}
class Main {
  static void main() {
    Holder h1 = new Holder();
    Holder h2 = new Holder();
    h1.put(new Circle());
    h2.put(new Rect());
    Circle c = (Circle) h1.get();
    Shape s = (Shape) h1.get();
    Object d = s.describe();
    Chest chest = new Chest();
    Object ghost = chest.peek();
    Shape g2 = (Shape) ghost;
    Object e = g2.describe();
    print(d);
    print(e);
  }
}`

func solve(t *testing.T, prog *ir.Program, spec string, provenance bool) *pta.Result {
	t.Helper()
	res, err := pta.Analyze(context.Background(), prog, spec, pta.Options{Budget: -1, Provenance: provenance})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMayFailCastWithWitness(t *testing.T) {
	prog := lang.MustCompile("checkers", src)
	ins := solve(t, prog, "insens", true)
	tgt := &checkers.Target{Prog: prog, Res: ins}

	diags := checkers.MayFailCastChecker{}.Check(tgt)
	if len(diags) != 1 {
		t.Fatalf("insens may-fail-cast diagnostics = %d, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Severity != checkers.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if !strings.Contains(d.Message, "Circle may fail") || !strings.Contains(d.Message, "Rect") {
		t.Errorf("message should name the cast target and the conflicting object: %q", d.Message)
	}
	if len(d.Witness) == 0 {
		t.Fatal("diagnostic carries no witness despite provenance recording")
	}
	if !strings.HasPrefix(d.Witness[0], "alloc ") || !strings.Contains(d.Witness[0], "Rect") {
		t.Errorf("witness should start at the conflicting Rect allocation, got %q", d.Witness[0])
	}
	// The conflated flow runs through the Holder field.
	if !strings.Contains(strings.Join(d.Witness, " "), ".o") {
		t.Errorf("witness should pass through Holder.o: %v", d.Witness)
	}

	// The refined analysis separates the holders: no may-fail casts.
	obj := solve(t, prog, "2objH", false)
	if diags := (checkers.MayFailCastChecker{}).Check(&checkers.Target{Prog: prog, Res: obj}); len(diags) != 0 {
		t.Errorf("2objH may-fail-cast diagnostics = %v, want none", diags)
	}

	// Without provenance the diagnostic still fires, witness-free.
	insPlain := solve(t, prog, "insens", false)
	diags = checkers.MayFailCastChecker{}.Check(&checkers.Target{Prog: prog, Res: insPlain})
	if len(diags) != 1 || diags[0].Witness != nil {
		t.Errorf("without provenance want 1 witness-free diagnostic, got %v", diags)
	}
}

func TestEmptyDeref(t *testing.T) {
	prog := lang.MustCompile("checkers", src)
	ins := solve(t, prog, "insens", false)
	diags := checkers.EmptyDerefChecker{}.Check(&checkers.Target{Prog: prog, Res: ins})
	if len(diags) == 0 {
		t.Fatal("no empty-deref diagnostics; g2.describe() dereferences a provably empty pointer")
	}
	found := false
	for _, d := range diags {
		if d.Severity != checkers.Warning {
			t.Errorf("severity = %v, want warning: %v", d.Severity, d)
		}
		// Every reported base must truly be empty.
		v := varByQualifiedName(t, prog, d.Site)
		if ins.NumVarHeaps(v) != 0 {
			t.Errorf("reported base %s has a non-empty points-to set", d.Site)
		}
		if strings.Contains(d.Site, "g2") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a diagnostic on g2, got %v", diags)
	}
}

func varByQualifiedName(t *testing.T, prog *ir.Program, name string) ir.VarID {
	t.Helper()
	for v := range prog.Vars {
		if prog.VarName(ir.VarID(v)) == name {
			return ir.VarID(v)
		}
	}
	t.Fatalf("no variable named %q", name)
	return ir.None
}

func TestDeadMethod(t *testing.T) {
	prog := lang.MustCompile("checkers", src)
	ins := solve(t, prog, "insens", false)
	diags := checkers.DeadMethodChecker{}.Check(&checkers.Target{Prog: prog, Res: ins})
	found := false
	for _, d := range diags {
		if strings.Contains(d.Site, "Unused.never") {
			found = true
		}
		m := methodByName(t, prog, d.Site)
		if ins.MethodReachable(m) {
			t.Errorf("dead-method reported reachable method %s", d.Site)
		}
	}
	if !found {
		t.Errorf("Unused.never not reported dead; got %v", diags)
	}
}

func methodByName(t *testing.T, prog *ir.Program, name string) ir.MethodID {
	t.Helper()
	for m := range prog.Methods {
		if prog.MethodName(ir.MethodID(m)) == name {
			return ir.MethodID(m)
		}
	}
	t.Fatalf("no method named %q", name)
	return ir.None
}

func TestDevirt(t *testing.T) {
	prog := lang.MustCompile("checkers", src)
	ins := solve(t, prog, "insens", false)
	obj := solve(t, prog, "2objH", false)

	insMsgs := strings.Builder{}
	for _, d := range (checkers.DevirtChecker{}).Check(&checkers.Target{Prog: prog, Res: ins}) {
		insMsgs.WriteString(d.Message + "\n")
		if d.Severity != checkers.Info {
			t.Errorf("severity = %v, want info", d.Severity)
		}
	}
	objMsgs := strings.Builder{}
	for _, d := range (checkers.DevirtChecker{}).Check(&checkers.Target{Prog: prog, Res: obj}) {
		objMsgs.WriteString(d.Message + "\n")
	}
	// peek() is monomorphic everywhere; describe() only under 2objH
	// (insens conflates the holders, so s.describe() sees 2 targets).
	if !strings.Contains(insMsgs.String(), "Chest.peek") {
		t.Errorf("insens devirt should include the chest.peek() dispatch: %q", insMsgs.String())
	}
	insDescribe := strings.Count(insMsgs.String(), "describe")
	objDescribe := strings.Count(objMsgs.String(), "describe")
	if objDescribe <= insDescribe {
		t.Errorf("2objH should devirtualize more describe() dispatches than insens (%d vs %d)",
			objDescribe, insDescribe)
	}
}

func TestConflationHotspots(t *testing.T) {
	prog := lang.MustCompile("checkers", src)
	ins := solve(t, prog, "insens", false)
	obj := solve(t, prog, "2objH", false)

	diags := checkers.ConflationChecker{}.Check(&checkers.Target{Prog: prog, Res: obj, Baseline: ins})
	if len(diags) == 0 {
		t.Fatal("no conflation hotspots despite insens/2objH precision gap")
	}
	if !strings.Contains(diags[0].Message, "conflation hotspot #1") {
		t.Errorf("top hotspot not ranked first: %v", diags[0])
	}
	// The conflated objects are the Holder contents (Circle/Rect).
	top := diags[0].Site
	if !strings.Contains(top, "Circle") && !strings.Contains(top, "Rect") {
		t.Errorf("top hotspot should be a Holder content allocation, got %q", top)
	}
	if len(diags) > checkers.MaxConflationHotspots {
		t.Errorf("hotspot list not capped: %d entries", len(diags))
	}

	// Inert without a baseline, or when baseline == result analysis.
	if d := (checkers.ConflationChecker{}).Check(&checkers.Target{Prog: prog, Res: obj}); d != nil {
		t.Errorf("conflation without baseline should report nothing, got %v", d)
	}
	if d := (checkers.ConflationChecker{}).Check(&checkers.Target{Prog: prog, Res: ins, Baseline: ins}); d != nil {
		t.Errorf("conflation against itself should report nothing, got %v", d)
	}
}

func TestRunOrderingAndRegistry(t *testing.T) {
	prog := lang.MustCompile("checkers", src)
	ins := solve(t, prog, "insens", true)
	obj := solve(t, prog, "2objH", false)
	tgt := &checkers.Target{Prog: prog, Res: ins, Baseline: obj}

	diags := checkers.Run(tgt, checkers.All())
	if len(diags) == 0 {
		t.Fatal("full run produced no diagnostics")
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Severity > diags[i-1].Severity {
			t.Fatalf("diagnostics not ordered by severity: %v before %v", diags[i-1], diags[i])
		}
	}
	if diags[0].Checker != "may-fail-cast" {
		t.Errorf("errors should sort first, got %v", diags[0])
	}

	// Determinism: a second run yields the identical sequence.
	again := checkers.Run(tgt, checkers.All())
	if len(again) != len(diags) {
		t.Fatalf("non-deterministic run: %d vs %d diagnostics", len(diags), len(again))
	}
	for i := range diags {
		if diags[i].String() != again[i].String() {
			t.Fatalf("non-deterministic diagnostic %d: %v vs %v", i, diags[i], again[i])
		}
	}

	if _, err := checkers.ByName("may-fail-cast", "no-such-checker"); err == nil {
		t.Error("ByName accepted an unknown checker")
	}
	cs, err := checkers.ByName(checkers.Names()...)
	if err != nil || len(cs) != len(checkers.All()) {
		t.Errorf("ByName round-trip failed: %v, %v", cs, err)
	}
}

func TestPrecisionCountsAgree(t *testing.T) {
	// The counters must equal what the corresponding checkers report:
	// may-fail-cast diagnostics == MayFailCasts, devirt + poly ==
	// reachable virtual call sites, dead + reachable == all methods.
	prog := lang.MustCompile("checkers", src)
	for _, spec := range []string{"insens", "2objH"} {
		res := solve(t, prog, spec, false)
		tgt := &checkers.Target{Prog: prog, Res: res}
		c := checkers.PrecisionCounts(res, nil)
		if n := len(checkers.MayFailCastChecker{}.Check(tgt)); n != c.MayFailCasts {
			t.Errorf("%s: %d cast diagnostics vs MayFailCasts=%d", spec, n, c.MayFailCasts)
		}
		dead := len(checkers.DeadMethodChecker{}.Check(tgt))
		if dead+c.ReachableMethods != prog.NumMethods() {
			t.Errorf("%s: dead (%d) + reachable (%d) != methods (%d)",
				spec, dead, c.ReachableMethods, prog.NumMethods())
		}
		if got := len(checkers.PolyVirtualCalls(res)); got != c.PolyVCalls {
			t.Errorf("%s: PolyVirtualCalls len %d vs PolyVCalls %d", spec, got, c.PolyVCalls)
		}
	}

	// A taint run's document counts casts as its checker does: the
	// sanitizer's injected (Object) cast, which taint$ objects fail by
	// design, is in neither.
	res, err := analysis.Run(context.Background(), analysis.Request{
		Source: &analysis.Source{MJFile: "../../examples/ptalint/taintdemo.mj"},
		Job:    analysis.Job{Spec: "2objH", Taint: taint.SpecFromLists("Net.fetch", "Net.publish", "Net.scrub")},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt := &checkers.Target{Prog: res.Prog, Res: res.Main, Taint: res.TaintInfo}
	if n := len(checkers.MayFailCastChecker{}.Check(tgt)); n != res.Precision.MayFailCasts {
		t.Errorf("taint run: %d cast diagnostics vs may_fail_casts=%d", n, res.Precision.MayFailCasts)
	}
}
