// Package figures regenerates every table and figure of the paper's
// evaluation section (Figures 1 and 4-7) over the synthetic suite.
//
// The numbers are not expected to match the paper's absolute values
// (the substrate differs); the *shape* — which analyses time out on
// which benchmarks, which heuristic is cheaper, how much precision each
// variant retains — is the reproduction target and is asserted by the
// package's tests.
package figures

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/obs"
	"introspect/internal/pta"
	"introspect/internal/report"
	"introspect/internal/suite"
)

// Config controls a figure run.
type Config struct {
	// Budget is the per-run work budget standing in for the paper's
	// 90-minute timeout. 0 means DefaultBudget.
	Budget int64
	// Parallel is the number of analysis runs in flight at once
	// (passed to analysis.RunAll): <= 0 means GOMAXPROCS. Figure
	// output is identical at any setting — runs are isolated and
	// rows are assembled in request order.
	Parallel int
	// Tracer, if non-nil, records the figure fleets onto it: one track
	// per analysis run ("<bench> <spec>") with a span per pipeline
	// stage and sampled solver snapshots as instant events. Tracing
	// never changes figure output — observers are read-only.
	Tracer *obs.Tracer
}

// DefaultBudget reproduces the paper's timeout behavior on this suite:
// runs the paper reports as non-terminating exhaust this budget.
const DefaultBudget int64 = 30_000_000

// Limits returns the solver limits a figure run uses.
func (c Config) Limits() analysis.Limits {
	b := c.Budget
	if b == 0 {
		b = DefaultBudget
	}
	return analysis.Limits{Budget: b}
}

// rowOf renders one fleet outcome as a table row. A budget-exhausted
// main pass is a reportable outcome (the figures' TIMEOUT rows), so
// only a budget error without a measured result — or any other error —
// propagates.
func rowOf(req analysis.Request, rr analysis.RunResult) (report.Row, error) {
	if rr.Err != nil {
		var be *analysis.BudgetExceededError
		if !errors.As(rr.Err, &be) || rr.Result == nil || rr.Result.Precision == nil {
			return report.Row{}, rr.Err
		}
	}
	return report.Row{Benchmark: req.Source.Bench, Precision: *rr.Result.Precision}, nil
}

// instrument applies the Config's tracing to a fleet: with a tracer
// set, each request gets its own track (so concurrent runs render on
// separate lanes) on top of any observer it already carries. Every
// fleet must pass through here before RunAll, or its runs would be
// missing from the trace.
func (c Config) instrument(reqs []analysis.Request) {
	if c.Tracer == nil {
		return
	}
	for i := range reqs {
		track := c.Tracer.NewTrack(benchOf(reqs[i]) + " " + reqs[i].Job.Spec)
		reqs[i].Observer = analysis.Observers(reqs[i].Observer, analysis.TrackObserver(track))
	}
}

// benchOf names a request's subject for display: the frontend input
// for Source-carrying requests, the program name for pre-built ones
// (the taint fleet hands RunAll merged programs directly).
func benchOf(req analysis.Request) string {
	if req.Source != nil {
		return req.Source.Bench
	}
	if req.Prog != nil {
		return req.Prog.Name
	}
	return "?"
}

// runAll executes the requests through the bounded-parallel fleet
// runner and renders each outcome as a table row, in request order.
func runAll(cfg Config, reqs []analysis.Request) ([]report.Row, error) {
	cfg.instrument(reqs)
	rows := make([]report.Row, len(reqs))
	for i, rr := range analysis.RunAll(context.Background(), reqs, cfg.Parallel) {
		row, err := rowOf(reqs[i], rr)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

// fullReq builds a plain single-pass analysis request.
func fullReq(name, spec string, lim analysis.Limits) analysis.Request {
	return analysis.Request{
		Source: &analysis.Source{Bench: name},
		Job:    analysis.Job{Spec: spec},
		Limits: lim,
	}
}

// introReq builds an introspective-pipeline request: deep analysis
// plus variant suffix, with optional threshold overrides — everything
// expressed as serializable Job data, so the figure fleets exercise
// exactly the requests cmd/ptad accepts on the wire.
func introReq(name, deep, variant string, th *analysis.Thresholds, lim analysis.Limits) analysis.Request {
	return analysis.Request{
		Source: &analysis.Source{Bench: name},
		Job:    analysis.Job{Spec: deep + "-" + variant, Thresholds: th},
		Limits: lim,
	}
}

// Fig1 reproduces Figure 1: context-insensitive vs 2objH running cost
// on all nine benchmarks, demonstrating the bimodal behavior of deep
// context-sensitivity.
func Fig1(cfg Config) ([]report.Row, error) {
	var reqs []analysis.Request
	for _, b := range suite.Names() {
		for _, a := range []string{"insens", "2objH"} {
			reqs = append(reqs, fullReq(b, a, cfg.Limits()))
		}
	}
	return runAll(cfg, reqs)
}

// Fig4Row is one line of the Figure 4 table: the percentage of call
// sites and objects each heuristic chose NOT to refine.
type Fig4Row struct {
	Benchmark              string
	CallSitesA, CallSitesB float64
	ObjectsA, ObjectsB     float64
}

// Fig4 reproduces the Figure 4 table.
func Fig4(cfg Config) ([]Fig4Row, error) {
	subjects := suite.Figure4Subjects()
	reqs := make([]analysis.Request, len(subjects))
	for i, b := range subjects {
		reqs[i] = fullReq(b, "insens", cfg.Limits())
	}
	cfg.instrument(reqs)
	var rows []Fig4Row
	for i, rr := range analysis.RunAll(context.Background(), reqs, cfg.Parallel) {
		if rr.Err != nil {
			var be *analysis.BudgetExceededError
			if !errors.As(rr.Err, &be) || rr.Result == nil || rr.Result.Main == nil {
				return nil, rr.Err
			}
		}
		m := introspect.Compute(rr.Result.Main)
		selA := introspect.SelectWith(rr.Result.Main, m, introspect.DefaultA(), false)
		selB := introspect.SelectWith(rr.Result.Main, m, introspect.DefaultB(), false)
		rows = append(rows, Fig4Row{
			Benchmark:  subjects[i],
			CallSitesA: selA.PctCallSites(), CallSitesB: selB.PctCallSites(),
			ObjectsA: selA.PctObjects(), ObjectsB: selB.PctObjects(),
		})
	}
	return rows, nil
}

// FormatFig4 renders the Figure 4 table, including the paper's average
// row.
func FormatFig4(rows []Fig4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: call sites and objects NOT refined (%%)\n")
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s %12s\n", "benchmark",
		"calls-HeurA", "calls-HeurB", "objs-HeurA", "objs-HeurB")
	var ca, cb, oa, ob float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			r.Benchmark, r.CallSitesA, r.CallSitesB, r.ObjectsA, r.ObjectsB)
		ca += r.CallSitesA
		cb += r.CallSitesB
		oa += r.ObjectsA
		ob += r.ObjectsB
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&sb, "%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
			"average", ca/n, cb/n, oa/n, ob/n)
	}
	return sb.String()
}

// Variants returns the four analyses plotted in Figures 5-7 for a deep
// analysis name: insens, <deep>-IntroA, <deep>-IntroB, <deep>.
func Variants(deep string) []string {
	return []string{"insens", deep + "-IntroA", deep + "-IntroB", deep}
}

// FigPerf reproduces one of Figures 5 (deep="2objH"), 6 ("2typeH"), or
// 7 ("2callH"): running cost plus the three precision metrics for the
// four analysis variants over the six experimental subjects.
//
// The insensitive fleet runs first and doubles as the introspective
// variants' pre-pass (Request.First), so each benchmark is solved
// context-insensitively once instead of three times. The rows are
// identical either way — the pre-pass is a pure function of the
// program.
func FigPerf(cfg Config, deep string) ([]report.Row, error) {
	subjects := suite.ExperimentalSubjects()
	insReqs := make([]analysis.Request, len(subjects))
	for i, b := range subjects {
		insReqs[i] = fullReq(b, "insens", cfg.Limits())
	}
	cfg.instrument(insReqs)
	insRes := analysis.RunAll(context.Background(), insReqs, cfg.Parallel)

	insRows := make([]report.Row, len(subjects))
	var rest []analysis.Request
	for i, b := range subjects {
		row, err := rowOf(insReqs[i], insRes[i])
		if err != nil {
			return nil, err
		}
		insRows[i] = row
		first := sharedFirst(insRes[i])
		ra := introReq(b, deep, "IntroA", nil, cfg.Limits())
		rb := introReq(b, deep, "IntroB", nil, cfg.Limits())
		ra.First, rb.First = first, first
		rest = append(rest, ra, rb, fullReq(b, deep, cfg.Limits()))
	}
	restRows, err := runAll(cfg, rest)
	if err != nil {
		return nil, err
	}
	rows := make([]report.Row, 0, 4*len(subjects))
	for i := range subjects {
		rows = append(rows, insRows[i], restRows[3*i], restRows[3*i+1], restRows[3*i+2])
	}
	return rows, nil
}

// sharedFirst extracts from an insensitive fleet outcome a result
// suitable for injection as Request.First. A failed or timed-out run
// yields nil: the introspective pipeline then solves its own pre-pass
// and reproduces the original (failing) behavior exactly.
func sharedFirst(rr analysis.RunResult) *pta.Result {
	if rr.Err != nil || rr.Result == nil || rr.Result.Main == nil || !rr.Result.Main.Complete {
		return nil
	}
	return rr.Result.Main
}

// FigNumber maps a deep analysis to its paper figure number.
func FigNumber(deep string) int {
	switch deep {
	case "2objH":
		return 5
	case "2typeH":
		return 6
	case "2callH":
		return 7
	}
	return 0
}

// Summary computes, for a set of FigPerf rows, the precision retention
// of each introspective variant: the fraction of the insens→full
// precision delta that the variant preserves, averaged over benchmarks
// where the full analysis terminated and over the three metrics.
func Summary(rows []report.Row) map[string]float64 {
	byBench := map[string]map[string]report.Row{}
	for _, r := range rows {
		if byBench[r.Benchmark] == nil {
			byBench[r.Benchmark] = map[string]report.Row{}
		}
		key := r.Analysis
		if strings.HasSuffix(key, "-IntroA") {
			key = "A"
		} else if strings.HasSuffix(key, "-IntroB") {
			key = "B"
		} else if key != "insens" {
			key = "full"
		}
		byBench[r.Benchmark][key] = r
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, m := range byBench {
		ins, full := m["insens"], m["full"]
		if full.TimedOut || ins.Analysis == "" || full.Analysis == "" {
			continue
		}
		for _, v := range []string{"A", "B"} {
			r, ok := m[v]
			if !ok || r.TimedOut {
				continue
			}
			frac, n := 0.0, 0
			add := func(insV, fullV, got int) {
				if insV > fullV {
					frac += float64(insV-got) / float64(insV-fullV)
					n++
				}
			}
			add(ins.PolyVCalls, full.PolyVCalls, r.PolyVCalls)
			add(ins.ReachableMethods, full.ReachableMethods, r.ReachableMethods)
			add(ins.MayFailCasts, full.MayFailCasts, r.MayFailCasts)
			if n > 0 {
				sums[v] += frac / float64(n)
				counts[v]++
			}
		}
	}
	out := map[string]float64{}
	for v, s := range sums {
		out[v] = s / counts[v]
	}
	return out
}

// SortRows orders rows benchmark-major in suite display order, variant
// minor in Variants order — the layout of the paper's charts.
func SortRows(rows []report.Row, deep string) {
	benchOrder := map[string]int{}
	for i, b := range suite.Names() {
		benchOrder[b] = i
	}
	varOrder := map[string]int{}
	for i, v := range Variants(deep) {
		varOrder[v] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if benchOrder[rows[i].Benchmark] != benchOrder[rows[j].Benchmark] {
			return benchOrder[rows[i].Benchmark] < benchOrder[rows[j].Benchmark]
		}
		return varOrder[rows[i].Analysis] < varOrder[rows[j].Analysis]
	})
}
