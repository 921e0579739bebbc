package figures

import (
	"context"
	"fmt"
	"strings"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/pta"
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
// subjects. The insensitive and full runs are shared across scales
// (they do not depend on the heuristic constants), and each subject's
// insensitive result doubles as every introspective run's pre-pass
// (Request.First) — one insensitive solve per subject for the whole
// sweep.
func Ablation(cfg Config, deep string, scales []float64) ([]AblationRow, error) {
	subjects := suite.ExperimentalSubjects()
	var shared []analysis.Request
	for _, b := range subjects {
		shared = append(shared, fullReq(b, "insens", cfg.Limits()), fullReq(b, deep, cfg.Limits()))
	}
	cfg.instrument(shared)
	sharedRes := analysis.RunAll(context.Background(), shared, cfg.Parallel)
	ins := map[string]report.Row{}
	full := map[string]report.Row{}
	firsts := map[string]*pta.Result{}
	for i, b := range subjects {
		insRow, err := rowOf(shared[2*i], sharedRes[2*i])
		if err != nil {
			return nil, err
		}
		fullRow, err := rowOf(shared[2*i+1], sharedRes[2*i+1])
		if err != nil {
			return nil, err
		}
		ins[b] = insRow
		full[b] = fullRow
		firsts[b] = sharedFirst(sharedRes[2*i])
	}

	var rows []AblationRow
	for _, scale := range scales {
		for _, v := range []struct {
			variant string
			th      *analysis.Thresholds
		}{{"IntroA", scaledA(scale)}, {"IntroB", scaledB(scale)}} {
			row := AblationRow{Scale: scale, Heuristic: v.variant, Retention: -1}
			reqs := make([]analysis.Request, len(subjects))
			for i, b := range subjects {
				reqs[i] = introReq(b, deep, v.variant, v.th, cfg.Limits())
				reqs[i].First = firsts[b]
			}
			introRows, err := runAll(cfg, reqs)
			if err != nil {
				return nil, err
			}
			var figRows []report.Row
			for i, b := range subjects {
				if introRows[i].TimedOut {
					row.Timeouts = append(row.Timeouts, b)
				}
				figRows = append(figRows, ins[b], introRows[i], full[b])
			}
			sum := Summary(figRows)
			if r, ok := sum[bucketOf(v.variant)]; ok {
				row.Retention = r
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func bucketOf(name string) string {
	if strings.HasSuffix(name, "IntroB") || name == "IntroB" {
		return "B"
	}
	return "A"
}

// SyntacticBaseline reproduces the paper's related-work observation
// that the traditional hard-coded heuristics (strings, exceptions, and
// similar allocated context-insensitively) do not address the
// scalability pathologies: it runs the deep analysis with only the
// classic syntactic exclusions on the benchmarks the paper reports as
// non-terminating, and returns their rows (expected: still TIMEOUT).
func SyntacticBaseline(cfg Config, deep string, benchmarks []string) ([]report.Row, error) {
	reqs := make([]analysis.Request, len(benchmarks))
	for i, b := range benchmarks {
		so := introspect.DefaultSyntactic()
		reqs[i] = analysis.Request{
			Source: &analysis.Source{Bench: b},
			Job:    analysis.Job{Spec: deep, Syntactic: &so},
			Limits: cfg.Limits(),
		}
	}
	return runAll(cfg, reqs)
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
