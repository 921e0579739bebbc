package figures

import (
	"strings"
	"testing"

	"introspect/internal/obs"
	"introspect/internal/report"
	"introspect/internal/suite"
)

// These tests pin the reproduction's central claims: the qualitative
// shape of every figure in the paper's evaluation. They are integration
// tests over the full pipeline (suite generation → analyses →
// heuristics → metrics) and take tens of seconds; they are skipped
// under -short.

func wantShape(t *testing.T) Config {
	t.Helper()
	if testing.Short() {
		t.Skip("figure shape tests are slow; skipped with -short")
	}
	return Config{}
}

func rowMap(rows []report.Row) map[string]map[string]report.Row {
	out := map[string]map[string]report.Row{}
	for _, r := range rows {
		if out[r.Benchmark] == nil {
			out[r.Benchmark] = map[string]report.Row{}
		}
		out[r.Benchmark][r.Analysis] = r
	}
	return out
}

// TestFig1Shape: context-insensitive analysis is uniformly cheap; 2objH
// explodes exactly on hsqldb and jython and costs much more on several
// others (the paper's bimodality).
func TestFig1Shape(t *testing.T) {
	cfg := wantShape(t)
	rows, err := Fig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := rowMap(rows)
	for _, b := range suite.Names() {
		ins := m[b]["insens"]
		if ins.TimedOut {
			t.Errorf("%s: insens timed out — it must always scale", b)
		}
		full := m[b]["2objH"]
		switch b {
		case "hsqldb", "jython":
			if !full.TimedOut {
				t.Errorf("%s: 2objH terminated (work=%d); the paper reports a timeout", b, full.Work)
			}
		default:
			if full.TimedOut {
				t.Errorf("%s: 2objH timed out; the paper reports termination", b)
			}
		}
	}
	// Bimodality: the ratio 2objH/insens varies by more than an order
	// of magnitude across terminating benchmarks.
	minR, maxR := 1e18, 0.0
	for _, b := range suite.Names() {
		full, ins := m[b]["2objH"], m[b]["insens"]
		if full.TimedOut {
			continue
		}
		r := float64(full.Work) / float64(ins.Work)
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR/minR < 5 {
		t.Errorf("2objH/insens cost ratios too uniform (min %.1f, max %.1f): no bimodality", minR, maxR)
	}
}

// TestFig4Shape: Heuristic A excludes far more call sites than B; both
// exclude minorities; B's object exclusion is non-trivial but below A's
// on the explosion-heavy benchmarks.
func TestFig4Shape(t *testing.T) {
	cfg := wantShape(t)
	rows, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sumCA, sumCB float64
	for _, r := range rows {
		if r.CallSitesA < r.CallSitesB {
			t.Errorf("%s: Heuristic A excludes fewer call sites (%.1f%%) than B (%.1f%%)",
				r.Benchmark, r.CallSitesA, r.CallSitesB)
		}
		if r.CallSitesA > 50 || r.ObjectsA > 50 {
			t.Errorf("%s: exclusions are not a small minority (A: calls %.1f%%, objs %.1f%%)",
				r.Benchmark, r.CallSitesA, r.ObjectsA)
		}
		sumCA += r.CallSitesA
		sumCB += r.CallSitesB
	}
	n := float64(len(rows))
	if sumCA/n < 2*(sumCB/n) {
		t.Errorf("average call-site exclusion: A %.2f%% should be much larger than B %.2f%%",
			sumCA/n, sumCB/n)
	}
}

// figPerfWant maps deep analysis → the expected-timeout sets for the
// full and IntroB variants, from Figures 5-7, and the figure's exact
// totals. The totals are deterministic: a change to propagation order,
// work accounting or the budget cut shows up here even where
// fig5.golden, which rounds work to thousands, stays the same.
var figPerfWant = map[string]struct {
	full, introB map[string]bool
	totals       figTotals
}{
	"2objH":  {full: set("hsqldb", "jython"), introB: set("jython"), totals: figTotals{157_758_965, 31_878_303, 3}},
	"2typeH": {full: set("jython"), introB: set(), totals: figTotals{106_387_902, 36_165_201, 1}},
	"2callH": {full: set("bloat", "hsqldb", "jython", "xalan"), introB: set("jython"), totals: figTotals{185_367_736, 15_880_820, 5}},
}

// figTotals is a figure's aggregate cost: total solver work, the
// derivations of its completed runs, and its timeouts. Timed-out runs
// add no derivations, because where a budget cuts a run off depends on
// the order it derived facts in.
type figTotals struct {
	work, cderivs int64
	timeouts      int
}

func totalsOf(rows []report.Row) figTotals {
	var t figTotals
	for _, r := range rows {
		t.work += r.Work
		if r.TimedOut {
			t.timeouts++
		} else {
			t.cderivs += r.Derivations
		}
	}
	return t
}

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func testFigPerfShape(t *testing.T, deep string) {
	cfg := wantShape(t)
	rows, err := FigPerf(cfg, deep)
	if err != nil {
		t.Fatal(err)
	}
	m := rowMap(rows)
	want := figPerfWant[deep]
	if got := totalsOf(rows); got != want.totals {
		t.Errorf("%s: totals %+v, want %+v", deep, got, want.totals)
	}
	for _, b := range suite.ExperimentalSubjects() {
		full := m[b][deep]
		introA := m[b][deep+"-IntroA"]
		introB := m[b][deep+"-IntroB"]
		ins := m[b]["insens"]

		if got := full.TimedOut; got != want.full[b] {
			t.Errorf("%s/%s: full timeout=%v, want %v", b, deep, got, want.full[b])
		}
		if got := introB.TimedOut; got != want.introB[b] {
			t.Errorf("%s/%s-IntroB: timeout=%v, want %v", b, deep, got, want.introB[b])
		}
		if introA.TimedOut {
			t.Errorf("%s/%s-IntroA timed out; IntroA scales everywhere in the paper", b, deep)
		}

		// Precision ordering where comparable: insens ≥ IntroA ≥ IntroB
		// ≥ full on every metric (lower is better).
		cmp := func(metric string, a, bb int, x, y string) {
			if a < bb {
				t.Errorf("%s/%s: %s ordering violated: %s=%d < %s=%d", b, deep, metric, x, a, y, bb)
			}
		}
		if !introA.TimedOut {
			cmp("polycalls", ins.PolyVCalls, introA.PolyVCalls, "insens", "IntroA")
			cmp("reachable", ins.ReachableMethods, introA.ReachableMethods, "insens", "IntroA")
			cmp("maycasts", ins.MayFailCasts, introA.MayFailCasts, "insens", "IntroA")
			if !introB.TimedOut {
				cmp("polycalls", introA.PolyVCalls, introB.PolyVCalls, "IntroA", "IntroB")
				cmp("maycasts", introA.MayFailCasts, introB.MayFailCasts, "IntroA", "IntroB")
			}
		}
		if !introB.TimedOut && !full.TimedOut {
			cmp("polycalls", introB.PolyVCalls, full.PolyVCalls, "IntroB", "full")
			cmp("reachable", introB.ReachableMethods, full.ReachableMethods, "IntroB", "full")
			cmp("maycasts", introB.MayFailCasts, full.MayFailCasts, "IntroB", "full")
		}

		// Scalability ordering: the introspective variants never cost
		// more than the full analysis.
		if !full.TimedOut {
			if introA.Work > full.Work*3/2 {
				t.Errorf("%s/%s: IntroA (%d) much more expensive than full (%d)", b, deep, introA.Work, full.Work)
			}
		}
	}

	// Precision retention: IntroB keeps (nearly) everything; IntroA
	// keeps a strict but substantial subset — the paper's "about
	// two-thirds".
	sum := Summary(rows)
	if sum["B"] < 0.9 {
		t.Errorf("%s: IntroB retains %.0f%% precision, want ≥90%%", deep, 100*sum["B"])
	}
	if sum["A"] < 0.4 || sum["A"] > 0.95 {
		t.Errorf("%s: IntroA retains %.0f%% precision, want a substantial strict subset (40-95%%)", deep, 100*sum["A"])
	}
	if sum["A"] >= sum["B"] {
		t.Errorf("%s: IntroA (%.2f) should retain less precision than IntroB (%.2f)", deep, sum["A"], sum["B"])
	}
}

func TestFig5Shape(t *testing.T) { testFigPerfShape(t, "2objH") }
func TestFig6Shape(t *testing.T) { testFigPerfShape(t, "2typeH") }
func TestFig7Shape(t *testing.T) { testFigPerfShape(t, "2callH") }

// TestFig5Traced regenerates Figure 5 with tracing on: stage spans and
// solver snapshots at the solver's default interval. Observers are
// read-only, so the totals must equal the untraced figure's, and the
// trace must hold at least one snapshot.
func TestFig5Traced(t *testing.T) {
	cfg := wantShape(t)
	cfg.Tracer = obs.NewTracer(0)
	rows, err := FigPerf(cfg, "2objH")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := totalsOf(rows), figPerfWant["2objH"].totals; got != want {
		t.Errorf("traced totals %+v, want the untraced %+v", got, want)
	}
	snapshots := 0
	for _, r := range cfg.Tracer.Spans() {
		if r.Phase == obs.PhaseInstant {
			snapshots++
		}
	}
	if snapshots == 0 {
		t.Error("traced Figure 5 recorded no solver snapshot")
	}
}

// TestVariantsAndNumbers pins the harness plumbing.
func TestVariantsAndNumbers(t *testing.T) {
	if got := Variants("2objH"); len(got) != 4 || got[3] != "2objH" || got[0] != "insens" {
		t.Errorf("Variants: %v", got)
	}
	for deep, n := range map[string]int{"2objH": 5, "2typeH": 6, "2callH": 7, "bogus": 0} {
		if FigNumber(deep) != n {
			t.Errorf("FigNumber(%s) = %d, want %d", deep, FigNumber(deep), n)
		}
	}
}

// TestFormatFig4 checks the table renderer.
func TestFormatFig4(t *testing.T) {
	out := FormatFig4([]Fig4Row{{Benchmark: "x", CallSitesA: 10, CallSitesB: 1, ObjectsA: 20, ObjectsB: 2}})
	for _, want := range []string{"x", "10.0%", "1.0%", "20.0%", "2.0%", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig4 output missing %q:\n%s", want, out)
		}
	}
}
