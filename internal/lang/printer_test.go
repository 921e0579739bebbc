package lang_test

import (
	"testing"

	"introspect/internal/lang"
	"introspect/internal/report"
)

const printerSrc = `
interface Shape { int area(); }
class Square extends Object implements Shape {
  int side;
  static Square last;
  Square(int s) { this.side = s; Square.last = this; }
  int area() { return side * side; }
  boolean bigger(Shape o) { return this.area() > o.area(); }
}
class Main {
  static void main() {
    Square sq = new Square(4);
    Square[] all = new Square[3];
    all[0] = sq;
    Shape sh = (Shape) all[0];
    int a = sh.area();
    int b = (1 + 2) * -3;
    boolean c = !(a > b) && (a == 0 || b != 1);
    String msg = "hi";
    if (c) { print(msg); } else { print(a); }
    while (a > 0) { a = a - 1; }
    try { Main.risky(sq); } catch (Square e) { print(e); }
  }
  static void risky(Square s) { throw s; }
}`

// TestFormatReparseFixpoint: Format(Parse(Format(Parse(src)))) ==
// Format(Parse(src)) — the printer output is stable and re-parseable.
func TestFormatReparseFixpoint(t *testing.T) {
	f1, err := lang.Parse(printerSrc)
	if err != nil {
		t.Fatal(err)
	}
	out1 := lang.Format(f1)
	f2, err := lang.Parse(out1)
	if err != nil {
		t.Fatalf("formatted output does not re-parse: %v\n%s", err, out1)
	}
	out2 := lang.Format(f2)
	if out1 != out2 {
		t.Errorf("Format is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
}

// TestFormatPreservesSemantics: the formatted program compiles to an
// analysis-equivalent IR.
func TestFormatPreservesSemantics(t *testing.T) {
	f, err := lang.Parse(printerSrc)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := lang.CompileFile("orig", f)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := lang.Parse(lang.Format(f))
	if err != nil {
		t.Fatal(err)
	}
	back, err := lang.CompileFile("back", f2)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Stats() != back.Stats() {
		t.Fatalf("stats differ: %v vs %v", orig.Stats(), back.Stats())
	}
	r1, err := analyze(orig, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := analyze(back, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := report.Measure(r1, nil), report.Measure(r2, nil)
	if p1.PolyVCalls != p2.PolyVCalls || p1.ReachableMethods != p2.ReachableMethods ||
		p1.MayFailCasts != p2.MayFailCasts || p1.VarPTSize != p2.VarPTSize {
		t.Errorf("analysis differs after format round trip:\n  %+v\n  %+v", p1, p2)
	}
}

func TestFormatGoldens(t *testing.T) {
	f, err := lang.Parse(`class A { static void main() { int x = (1 + 2) * 3; print(x); } }`)
	if err != nil {
		t.Fatal(err)
	}
	out := lang.Format(f)
	want := `class A {
  static void main() {
    int x = ((1 + 2) * 3);
    print(x);
  }
}
`
	if out != want {
		t.Errorf("Format output:\n%s\nwant:\n%s", out, want)
	}
}
