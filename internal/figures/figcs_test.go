package figures

import (
	"testing"

	"introspect/internal/suite"
)

// TestFigCSShape pins the extension figure's claims — the cut-shortcut
// acceptance criteria made executable:
//
//   - cs terminates on all nine benchmarks, including the two where
//     full 2objH exhausts its budget;
//   - cs costs less than the 2objH configuration everywhere (on the
//     timeout benchmarks, less than the budget 2objH burned);
//   - cs's precision counters are at or better than insensitive on
//     every benchmark, and strictly better somewhere (the cuts are
//     compensated, so counts can only shrink — and they do).
func TestFigCSShape(t *testing.T) {
	cfg := wantShape(t)
	rows, err := FigCS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := rowMap(rows)
	strictlyBetter := false
	for _, b := range suite.Names() {
		ins, cs, full := m[b]["insens"], m[b]["cs"], m[b]["2objH"]
		if cs.Analysis == "" || ins.Analysis == "" || full.Analysis == "" {
			t.Fatalf("%s: missing variant rows", b)
		}
		if cs.TimedOut {
			t.Errorf("%s: cs timed out — cut-shortcut must scale everywhere", b)
			continue
		}
		if cs.Work >= full.Work {
			t.Errorf("%s: cs work %d not below 2objH work %d", b, cs.Work, full.Work)
		}
		if cs.PolyVCalls > ins.PolyVCalls || cs.MayFailCasts > ins.MayFailCasts ||
			cs.ReachableMethods > ins.ReachableMethods {
			t.Errorf("%s: cs precision worse than insens: poly %d/%d, casts %d/%d, reach %d/%d",
				b, cs.PolyVCalls, ins.PolyVCalls, cs.MayFailCasts, ins.MayFailCasts,
				cs.ReachableMethods, ins.ReachableMethods)
		}
		if cs.PolyVCalls < ins.PolyVCalls || cs.MayFailCasts < ins.MayFailCasts {
			strictlyBetter = true
		}
		switch b {
		case "hsqldb", "jython":
			if !full.TimedOut {
				t.Errorf("%s: 2objH terminated; Figure 1 reports a timeout", b)
			}
		}
	}
	if !strictlyBetter {
		t.Error("cs never beat insens on any precision counter — the edit set did nothing")
	}

	sum := Summary(rows)
	if sum["cs"] <= 0 {
		t.Errorf("cs precision retention %.2f should be positive", sum["cs"])
	}
	if sum["B"] < sum["A"] {
		t.Errorf("IntroB retention %.2f below IntroA %.2f", sum["B"], sum["A"])
	}
}

// TestCSVariants pins the figure's variant list, which is its row order.
func TestCSVariants(t *testing.T) {
	want := []string{"insens", "2objH-IntroA", "2objH-IntroB", "cs", "2objH"}
	got := CSVariants()
	if len(got) != len(want) {
		t.Fatalf("CSVariants() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CSVariants() = %v, want %v", got, want)
		}
	}
}
