package figures

import (
	"fmt"
	"strings"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/report"
	"introspect/internal/suite"
)

// Ablation reproduces the paper's Section 3/4 robustness claim: the
// heuristics' value "does not come from excessive tuning ... even
// relatively large variations of these numbers make scarcely any
// difference in the total picture of results". It re-runs the
// introspective variants of one deep analysis with every heuristic
// constant scaled by the given factors and reports, per scale, which
// benchmarks time out and how much precision is retained.
type AblationRow struct {
	Scale     float64
	Heuristic string
	// Timeouts lists benchmarks whose introspective run exhausted the
	// budget at this scale.
	Timeouts []string
	// Retention is the average retained fraction of the insens→full
	// precision delta over benchmarks where the full analysis
	// terminates (NaN-free: -1 when not computable).
	Retention float64
}

// scaledA returns Heuristic A's constants scaled by f, as serializable
// threshold overrides.
func scaledA(f float64) *analysis.Thresholds {
	return &analysis.Thresholds{
		K: int(introspect.DefaultK * f),
		L: int(introspect.DefaultL * f),
		M: int(introspect.DefaultM * f),
	}
}

// scaledB returns Heuristic B's constants scaled by f.
func scaledB(f float64) *analysis.Thresholds {
	return &analysis.Thresholds{
		P: int(introspect.DefaultP * f),
		Q: int(introspect.DefaultQ * f),
	}
}

// Ablation runs the sweep for one deep analysis over the experimental
// subjects as one fleet: insens, the full deep analysis, and each
// heuristic at each scale. The insensitive and full runs do not depend
// on the heuristic constants, so every scale shares them, and each
// subject's insensitive result doubles as every introspective run's
// pre-pass — one insensitive solve per subject for the whole sweep.
func Ablation(cfg Config, deep string, scales []float64) ([]AblationRow, error) {
	subjects := suite.ExperimentalSubjects()
	jobs := specJobs("insens", deep)
	var rows []AblationRow
	for _, scale := range scales {
		jobs = append(jobs,
			analysis.Job{Spec: deep + "-IntroA", Thresholds: scaledA(scale)},
			analysis.Job{Spec: deep + "-IntroB", Thresholds: scaledB(scale)})
		rows = append(rows,
			AblationRow{Scale: scale, Heuristic: "IntroA", Retention: -1},
			AblationRow{Scale: scale, Heuristic: "IntroB", Retention: -1})
	}
	got, err := fleet(cfg, subjects, jobs)
	if err != nil {
		return nil, err
	}
	for j := range rows {
		row := &rows[j]
		var figRows []report.Row
		for i, b := range subjects {
			ins, full, intro := got[i*len(jobs)], got[i*len(jobs)+1], got[i*len(jobs)+2+j]
			if intro.TimedOut {
				row.Timeouts = append(row.Timeouts, b)
			}
			figRows = append(figRows, ins, intro, full)
		}
		if r, ok := Summary(figRows)[strings.TrimPrefix(row.Heuristic, "Intro")]; ok {
			row.Retention = r
		}
	}
	return rows, nil
}

// SyntacticBaseline reproduces the paper's related-work observation
// that the traditional hard-coded heuristics (strings, exceptions, and
// similar allocated context-insensitively) do not address the
// scalability pathologies: it runs the deep analysis with only the
// classic syntactic exclusions on the benchmarks the paper reports as
// non-terminating, and returns their rows (expected: still TIMEOUT).
func SyntacticBaseline(cfg Config, deep string, benchmarks []string) ([]report.Row, error) {
	so := introspect.DefaultSyntactic()
	return fleet(cfg, benchmarks, []analysis.Job{{Spec: deep, Syntactic: &so}})
}

// FormatAblation renders the sweep.
func FormatAblation(deep string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: heuristic-constant robustness for %s\n", deep)
	fmt.Fprintf(&sb, "%-8s %-10s %-28s %s\n", "scale", "heuristic", "timeouts", "retention")
	for _, r := range rows {
		to := strings.Join(r.Timeouts, ",")
		if to == "" {
			to = "(none)"
		}
		ret := "n/a"
		if r.Retention >= 0 {
			ret = fmt.Sprintf("%.0f%%", 100*r.Retention)
		}
		fmt.Fprintf(&sb, "%-8.2g %-10s %-28s %s\n", r.Scale, r.Heuristic, to, ret)
	}
	return sb.String()
}
