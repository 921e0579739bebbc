// Package figures regenerates every table and figure of the paper's
// evaluation section (Figures 1 and 4-7) over the synthetic suite,
// plus the reproduction's extension figures (8 and 9), the heuristic
// ablation and the syntactic baseline.
//
// Most of them are one experiment shape, a set of jobs run on a set of
// subjects, and fleet runs it: each subject's context-insensitive solve
// is both its insens row and every introspective job's pre-pass. run
// is the one place a figure calls analysis.RunAll and the one place a
// budget-capped run becomes a TIMEOUT row.
//
// The numbers are not expected to match the paper's absolute values
// (the substrate differs); the *shape* — which analyses time out on
// which benchmarks, which heuristic is cheaper, how much precision each
// variant retains — is the reproduction target and is asserted by the
// package's tests.
package figures

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/obs"
	"introspect/internal/report"
	"introspect/internal/suite"
)

// Config controls a figure run.
type Config struct {
	// Budget is the per-run work budget standing in for the paper's
	// 90-minute timeout. 0 means DefaultBudget.
	Budget int64
	// Parallel is the number of analysis runs in flight at once
	// (passed to analysis.RunAll): <= 0 means runtime.NumCPU(). Figure
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

// request builds the figure run of one job on one suite subject.
func (c Config) request(bench string, job analysis.Job) analysis.Request {
	return analysis.Request{Source: &analysis.Source{Bench: bench}, Job: job, Limits: c.Limits()}
}

// run executes the requests through the bounded-parallel fleet runner
// and hands each run's Result to keep(i, res) as the run ends, on the
// worker that ran it. A caller keeps what its rows read, so a fleet
// holds rows, not every Result it solved. run is the package's one
// call of analysis.RunAll. A main pass that ran out of budget is a
// reportable outcome, the figures' TIMEOUT rows, whose Result still
// carries Main and Precision; any other error fails the figure, a
// capped pre-pass included, and run returns the first in request
// order. With a tracer set, each run gets its own track, so
// concurrent runs render on separate lanes.
func run(cfg Config, reqs []analysis.Request, keep func(i int, res *analysis.Result)) error {
	if cfg.Tracer != nil {
		for i := range reqs {
			track := cfg.Tracer.NewTrack(benchOf(reqs[i]) + " " + reqs[i].Job.Spec)
			reqs[i].Observer = analysis.Observers(reqs[i].Observer, analysis.TrackObserver(track))
		}
	}
	errs := make([]error, len(reqs))
	analysis.RunAll(context.Background(), reqs, cfg.Parallel, func(i int, rr analysis.RunResult) {
		var be *analysis.BudgetExceededError
		if rr.Err != nil && !(errors.As(rr.Err, &be) && be.Stage == analysis.StageMainPass) {
			errs[i] = rr.Err
			return
		}
		keep(i, rr.Result)
	})
	return cmp.Or(errs...)
}

// benchOf names a request's subject for display: the frontend input
// for Source-carrying requests, the program name for pre-built ones
// (the taint figure hands RunAll merged programs directly).
func benchOf(req analysis.Request) string {
	if req.Source != nil {
		return req.Source.Bench
	}
	if req.Prog != nil {
		return req.Prog.Name
	}
	return "?"
}

// specJobs returns one plain job per spec.
func specJobs(specs ...string) []analysis.Job {
	jobs := make([]analysis.Job, len(specs))
	for i, s := range specs {
		jobs[i] = analysis.Job{Spec: s}
	}
	return jobs
}

// fleet runs every job on every subject and returns one row per pair,
// subject-major, in job order, whatever order the runs are dispatched
// in. When any job has a pre-pass, each subject is first solved
// context-insensitively once: that solve is the subject's insens row
// and every introspective job's Request.First, so a subject's pre-pass
// is solved once however many variants use it. The rows are identical
// either way, because the pre-pass is a pure function of the program.
// A subject whose insensitive solve timed out injects nothing, and its
// introspective runs then fail on their own capped pre-pass. Of every
// other run the fleet keeps only its row, so what it holds at once is
// the insensitive results and the runs in flight.
func fleet(cfg Config, subjects []string, jobs []analysis.Job) ([]report.Row, error) {
	insens := analysis.Job{Spec: "insens"}
	rows := make([]report.Row, len(subjects)*len(jobs))
	setRow := func(k int, res *analysis.Result) {
		rows[k] = report.Row{Benchmark: subjects[k/len(jobs)], Precision: *res.Precision}
	}
	firsts := make([]*analysis.Result, len(subjects))
	if slices.ContainsFunc(jobs, analysis.Job.NeedsPrePass) {
		reqs := make([]analysis.Request, len(subjects))
		for i, b := range subjects {
			reqs[i] = cfg.request(b, insens)
		}
		if err := run(cfg, reqs, func(i int, res *analysis.Result) { firsts[i] = res }); err != nil {
			return nil, err
		}
	}
	// Runs without a pre-pass (the full deep analysis, cs) go first:
	// they are the longest, and one dispatched last, often a capped
	// run, would end the fleet alone while the other workers sit idle.
	// Within each group jobs go last to first, each over every subject:
	// figures list jobs from less to more context-sensitive, so likely
	// longer runs start first, and one subject's variants, which tend
	// to cost alike (the ablation's jython IntroB caps at every scale),
	// are not solved side by side.
	var reqs []analysis.Request
	var at []int
	for _, pre := range []bool{false, true} {
		for j := len(jobs) - 1; j >= 0; j-- {
			for i, b := range subjects {
				k, job, first := i*len(jobs)+j, jobs[j], firsts[i]
				if job.NeedsPrePass() != pre {
					continue
				}
				if first != nil && job == insens {
					setRow(k, first)
					continue
				}
				req := cfg.request(b, job)
				if pre && first != nil && first.Main.Complete {
					req.First = first.Main
				}
				reqs, at = append(reqs, req), append(at, k)
			}
		}
	}
	if err := run(cfg, reqs, func(n int, res *analysis.Result) { setRow(at[n], res) }); err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig1 reproduces Figure 1: context-insensitive vs 2objH running cost
// on all nine benchmarks, demonstrating the bimodal behavior of deep
// context-sensitivity.
func Fig1(cfg Config) ([]report.Row, error) {
	return fleet(cfg, suite.Names(), specJobs("insens", "2objH"))
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
		reqs[i] = cfg.request(b, analysis.Job{Spec: "insens"})
	}
	results := make([]*analysis.Result, len(subjects))
	if err := run(cfg, reqs, func(i int, res *analysis.Result) { results[i] = res }); err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, len(subjects))
	for i, res := range results {
		m := introspect.Compute(res.Main)
		selA := introspect.SelectWith(res.Main, m, introspect.DefaultA(), false)
		selB := introspect.SelectWith(res.Main, m, introspect.DefaultB(), false)
		rows[i] = Fig4Row{
			Benchmark:  subjects[i],
			CallSitesA: selA.PctCallSites(), CallSitesB: selB.PctCallSites(),
			ObjectsA: selA.PctObjects(), ObjectsB: selB.PctObjects(),
		}
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
// four analysis variants over the six experimental subjects, in the
// charts' order (subject-major, Variants order). It is one fleet, so
// each subject is solved context-insensitively once, for its insens
// row and both introspective variants' pre-pass.
func FigPerf(cfg Config, deep string) ([]report.Row, error) {
	return fleet(cfg, suite.ExperimentalSubjects(), specJobs(Variants(deep)...))
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

// Summary computes, for a figure's rows, the precision retention of
// each variant: the fraction of the insens→full precision delta that
// the variant preserves, averaged over benchmarks where the full
// analysis terminated and over the three metrics. The introspective
// variants count under "A" and "B", a cut-shortcut row under "cs".
func Summary(rows []report.Row) map[string]float64 {
	byBench := map[string]map[string]report.Row{}
	var benches []string // in row order, so the float sums below are repeatable
	for _, r := range rows {
		if byBench[r.Benchmark] == nil {
			byBench[r.Benchmark] = map[string]report.Row{}
			benches = append(benches, r.Benchmark)
		}
		key := r.Analysis
		switch {
		case strings.HasSuffix(key, "-IntroA"):
			key = "A"
		case strings.HasSuffix(key, "-IntroB"):
			key = "B"
		case key != "insens" && key != "cs":
			key = "full"
		}
		byBench[r.Benchmark][key] = r
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, b := range benches {
		m := byBench[b]
		ins, full := m["insens"], m["full"]
		if full.TimedOut || ins.Analysis == "" || full.Analysis == "" {
			continue
		}
		for _, v := range []string{"A", "B", "cs"} {
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
// minor in Variants order — the layout of the paper's charts, in which
// FigPerf already returns them.
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
