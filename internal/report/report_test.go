package report_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/ir"
	"introspect/internal/lang"
	"introspect/internal/pta"
	"introspect/internal/report"
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
class Main {
  static void main() {
    Holder h1 = new Holder();
    Holder h2 = new Holder();
    h1.put(new Circle());
    h2.put(new Rect());
    Shape s1 = (Shape) h1.get();      // insens: may fail? both are Shapes -> safe
    Circle c = (Circle) h1.get();     // insens: may fail (Rect conflated)
    Shape any = s1;
    Object d = any.describe();        // insens: 2 targets; 2objH: 1
    print(d);
  }
}`

func analyzeBoth(t *testing.T) (*ir.Program, report.Precision, report.Precision) {
	t.Helper()
	prog := lang.MustCompile("report", src)
	ins, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := analyze(prog, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	return prog, report.Measure(ins, nil), report.Measure(obj, nil)
}

func TestPrecisionMetrics(t *testing.T) {
	_, pi, po := analyzeBoth(t)

	// The (Circle) cast may fail insensitively (holders conflated) but
	// not under 2objH; the (Shape) cast is always safe.
	if pi.MayFailCasts != 1 {
		t.Errorf("insens MayFailCasts = %d, want 1", pi.MayFailCasts)
	}
	if po.MayFailCasts != 0 {
		t.Errorf("2objH MayFailCasts = %d, want 0", po.MayFailCasts)
	}
	// describe() dispatch: insens 2 targets (poly), 2objH resolves to
	// Circle only.
	if pi.PolyVCalls != 1 {
		t.Errorf("insens PolyVCalls = %d, want 1", pi.PolyVCalls)
	}
	if po.PolyVCalls != 0 {
		t.Errorf("2objH PolyVCalls = %d, want 0", po.PolyVCalls)
	}
	// 2objH proves Rect.describe unreachable.
	if po.ReachableMethods >= pi.ReachableMethods {
		t.Errorf("2objH reachable (%d) should be below insens (%d)",
			po.ReachableMethods, pi.ReachableMethods)
	}
	if pi.Analysis != "insens" || po.Analysis != "2objH" {
		t.Error("Analysis names wrong")
	}
	if pi.VarPTSize == 0 || pi.Work == 0 {
		t.Error("cost fields not populated")
	}
}

func TestPolySites(t *testing.T) {
	prog := lang.MustCompile("report", src)
	ins, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	sites := report.PolySites(ins)
	if len(sites) != 1 || !strings.Contains(sites[0], "2 targets") {
		t.Errorf("report.PolySites = %v, want one site with 2 targets", sites)
	}
}

func TestFormatTable(t *testing.T) {
	rows := []report.Row{
		{Benchmark: "b1", Precision: report.Precision{Analysis: "insens", PolyVCalls: 3,
			ReachableMethods: 10, MayFailCasts: 2, Work: 5000, ElapsedMS: 7}},
		{Benchmark: "b1", Precision: report.Precision{Analysis: "2objH", TimedOut: true}},
	}
	out := report.FormatTable("title", rows)
	for _, want := range []string{"title", "b1", "insens", "TIMEOUT", "2objH"} {
		if !strings.Contains(out, want) {
			t.Errorf("report.FormatTable output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, 2 rows
		t.Errorf("report.FormatTable produced %d lines, want 4", len(lines))
	}
}

// TestTimedOutFlagged ensures budget-exhausted results carry the flag
// through report.Measure (a main-pass timeout still produces a report).
func TestTimedOutFlagged(t *testing.T) {
	prog := lang.MustCompile("report", src)
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: 3},
	})
	var be *analysis.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("expected BudgetExceededError, got %v", err)
	}
	if res.Precision == nil || !res.Precision.TimedOut {
		t.Error("timed-out result should be flagged in the precision report")
	}
}

// TestDistribution: a precise analysis shifts mass toward small
// points-to sets and reduces the average.
func TestDistribution(t *testing.T) {
	prog := lang.MustCompile("report", src)
	ins, err := analyze(prog, "insens")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := analyze(prog, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	di := report.MeasureDistribution(ins)
	do := report.MeasureDistribution(obj)
	if di.Vars == 0 || do.Vars == 0 {
		t.Fatal("no pointer vars measured")
	}
	if do.AvgVarPointsTo > di.AvgVarPointsTo {
		t.Errorf("2objH average |pt| (%.2f) should not exceed insens (%.2f)",
			do.AvgVarPointsTo, di.AvgVarPointsTo)
	}
	if di.MaxVarPointsTo < do.MaxVarPointsTo {
		t.Errorf("max |pt|: insens %d < 2objH %d", di.MaxVarPointsTo, do.MaxVarPointsTo)
	}
	s := di.String()
	if !strings.Contains(s, "avg |pt|") || !strings.Contains(s, "insens") {
		t.Errorf("Distribution.String = %q", s)
	}
	// Bucket counts sum to Vars.
	sum := 0
	for _, n := range di.Buckets {
		sum += n
	}
	if sum != di.Vars {
		t.Errorf("bucket sum %d != vars %d", sum, di.Vars)
	}
}
