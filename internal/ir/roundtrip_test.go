package ir_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/ir"
	"introspect/internal/lang"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/report"
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

// roundTripEquivalent serializes a program to the text format, parses
// it back, and checks that the two programs are analysis-equivalent:
// identical structure statistics and identical analysis outcomes.
func roundTripEquivalent(t *testing.T, prog *ir.Program, spec string) {
	t.Helper()
	var buf bytes.Buffer
	if err := prog.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ir.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: reparse failed: %v", prog.Name, err)
	}
	if prog.Stats() != back.Stats() {
		t.Fatalf("%s: stats differ:\n  orig %v\n  back %v", prog.Name, prog.Stats(), back.Stats())
	}
	r1, err := analyze(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := analyze(back, spec)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := report.Measure(r1, nil), report.Measure(r2, nil)
	if p1.PolyVCalls != p2.PolyVCalls || p1.ReachableMethods != p2.ReachableMethods ||
		p1.MayFailCasts != p2.MayFailCasts || p1.VarPTSize != p2.VarPTSize ||
		r1.NumCallGraphEdges() != r2.NumCallGraphEdges() {
		t.Errorf("%s/%s: analysis results differ after round trip:\n  orig %+v cg=%d\n  back %+v cg=%d",
			prog.Name, spec, p1, r1.NumCallGraphEdges(), p2, r2.NumCallGraphEdges())
	}
}

func TestRoundTripSuiteBenchmark(t *testing.T) {
	for _, name := range []string{"lusearch", "antlr"} {
		roundTripEquivalent(t, suite.MustLoad(name), "insens")
		roundTripEquivalent(t, suite.MustLoad(name), "2objH")
	}
}

func TestRoundTripCompiledProgram(t *testing.T) {
	prog := lang.MustCompile("rt", `
interface Animal { String speak(); }
class Dog implements Animal { String speak() { return "woof"; } }
class Cat implements Animal { String speak() { return "meow"; } }
class Holder {
  Object o;
  Holder(Object x) { this.o = x; }
  Object get() { return this.o; }
}
class Main {
  static void main() {
    Holder h = new Holder(new Dog());
    Animal a = (Animal) h.get();
    String s = a.speak();
    try { Main.risky(); } catch (Cat c) { print(c); }
    print(s);
  }
  static void risky() { throw new Cat(); }
}`)
	for _, a := range []string{"insens", "2objH", "2callH", "2typeH"} {
		roundTripEquivalent(t, prog, a)
	}
}

func TestRoundTripRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		roundTripEquivalent(t, prog, "insens")
		roundTripEquivalent(t, prog, "1objH")
	}
}

// TestParseStringSuite: each of the nine suite programs, written as
// text and parsed back, gives back the same text.
func TestParseStringSuite(t *testing.T) {
	for _, name := range suite.Names() {
		var src strings.Builder
		if err := suite.MustLoad(name).WriteText(&src); err != nil {
			t.Fatal(err)
		}
		prog, err := ir.ParseString(src.String())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out strings.Builder
		if err := prog.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		if out.String() != src.String() {
			t.Errorf("%s: the program's text differs from the text it was parsed from", name)
		}
	}
}

// TestValidateAllocatesNothing: Validate runs on every Finish, so on
// every parsed program and every taint injection; a valid program
// costs it no allocation.
func TestValidateAllocatesNothing(t *testing.T) {
	prog := suite.Profiles()["jython"].Build()
	if n := testing.AllocsPerRun(3, func() {
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per run on jython, want 0", n)
	}
}
