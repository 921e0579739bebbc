package figures

import (
	"fmt"
	"strings"

	"introspect/internal/report"
	"introspect/internal/suite"
)

// CSVariants returns the five analyses of the cut-shortcut comparison
// figure, in display order: the insensitive floor, the two
// introspective 2objH variants, cut-shortcut, and the full 2objH
// ceiling.
func CSVariants() []string {
	return []string{"insens", "2objH-IntroA", "2objH-IntroB", "cs", "2objH"}
}

// FigCS is the reproduction's extension figure (no paper counterpart):
// a three-way comparison of the two approaches to taming deep context-
// sensitivity over all nine benchmarks — the paper's introspective A/B
// heuristics, the cut-shortcut analysis (precision from graph edits
// instead of contexts), and the full 2objH bounds on either side. Its
// rows come subject-major in CSVariants order.
//
// Like FigPerf it is one fleet, so each benchmark is solved
// insensitively exactly once, for its insens row and both
// introspective variants' pre-pass.
func FigCS(cfg Config) ([]report.Row, error) {
	return fleet(cfg, suite.Names(), specJobs(CSVariants()...))
}

// FormatFigCSTrailer renders the figure's summary lines: precision
// retention per variant, and cut-shortcut's cost relative to the
// insensitive floor (averaged over benchmarks, in deterministic work
// units).
func FormatFigCSTrailer(rows []report.Row) string {
	sum := Summary(rows)
	var csWork, insWork float64
	solved, total := 0, 0
	m := rowMapOf(rows)
	for _, b := range suite.Names() {
		cs, ins := m[b]["cs"], m[b]["insens"]
		if cs.Analysis == "" {
			continue
		}
		total++
		if !cs.TimedOut {
			solved++
		}
		if !cs.TimedOut && !ins.TimedOut {
			csWork += float64(cs.Work)
			insWork += float64(ins.Work)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "precision retained vs full 2objH (where full terminates): IntroA %.0f%%, IntroB %.0f%%, cs %.0f%%\n",
		100*sum["A"], 100*sum["B"], 100*sum["cs"])
	fmt.Fprintf(&sb, "cut-shortcut solved %d/%d benchmarks at %.2fx insensitive cost (work units)\n",
		solved, total, csWork/insWork)
	return sb.String()
}

// rowMapOf indexes rows by benchmark then analysis.
func rowMapOf(rows []report.Row) map[string]map[string]report.Row {
	out := map[string]map[string]report.Row{}
	for _, r := range rows {
		if out[r.Benchmark] == nil {
			out[r.Benchmark] = map[string]report.Row{}
		}
		out[r.Benchmark][r.Analysis] = r
	}
	return out
}
