package introspect_test

// Go benchmarks for the figures and costs no perfbench workload
// measures. perfbench (see perfbench/README.md) times Figures 5-7, and
// scripts/bench.sh records its runs; the benchmarks here cover
// Figures 1, 4 and 9, the cut-shortcut analysis and the provenance
// recorder. Each iteration regenerates the data through the
// bounded-parallel fleet runner — the same code path cmd/introbench
// prints as tables — and reports the aggregate cost:
//
//	work      total solver work units (the deterministic time proxy)
//	peakpt    largest single points-to set of any run (explosion indicator)
//	timeouts  runs that exhausted the work budget (the paper's missing bars)
//
// For a single end-to-end pass use -benchtime=1x.

import (
	"context"
	"errors"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/figures"
	"introspect/internal/pta"
	"introspect/internal/report"
	"introspect/internal/suite"
)

var cfg = figures.Config{}

// reportRows attaches a figure's aggregate metrics to the benchmark
// output. cderivs sums Derivations over completed rows only: the size
// of the fixpoints the figure reached, which a change to propagation
// order or work accounting must leave alone. Timed-out rows are
// excluded because a budget cap lands on a prefix of the fixpoint
// that depends on the order facts were derived in.
func reportRows(b *testing.B, rows []report.Row) {
	b.Helper()
	var work, cderivs int64
	peak, timeouts := 0, 0
	for _, r := range rows {
		work += r.Work
		if r.PeakPT > peak {
			peak = r.PeakPT
		}
		if r.TimedOut {
			timeouts++
		} else {
			cderivs += r.Derivations
		}
	}
	b.ReportMetric(float64(work), "work")
	b.ReportMetric(float64(peak), "peakpt")
	b.ReportMetric(float64(timeouts), "timeouts")
	b.ReportMetric(float64(cderivs), "cderivs")
}

// BenchmarkFig1 regenerates Figure 1: context-insensitive vs 2objH on
// all nine benchmarks.
func BenchmarkFig1(b *testing.B) {
	var rows []report.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Fig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig4 regenerates the Figure 4 selection statistics: the
// insensitive pass plus both heuristics' selections per benchmark.
func BenchmarkFig4(b *testing.B) {
	var rows []figures.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ca, cb, oa, ob float64
	for _, r := range rows {
		ca += r.CallSitesA
		cb += r.CallSitesB
		oa += r.ObjectsA
		ob += r.ObjectsB
	}
	if n := float64(len(rows)); n > 0 {
		b.ReportMetric(ca/n, "callsA%")
		b.ReportMetric(cb/n, "callsB%")
		b.ReportMetric(oa/n, "objsA%")
		b.ReportMetric(ob/n, "objsB%")
	}
}

// BenchmarkProvenance measures the solver cost of derivation-witness
// recording (pta.Options.Provenance) on the largest suite benchmark:
// "off" is the default figure configuration (the recorder reduces to a
// nil check per edge push and per word of new bits), "on" adds the
// recorder's stamps on the same word-level propagation path. Both
// report the same work; "witnessed" counts the facts with a recorded
// source (0 when off). TestProvenanceDoesNotChangeResults checks this
// solve's work and witnesses; the benchmark prices the recorder.
func BenchmarkProvenance(b *testing.B) {
	prog, err := suite.Load("jython")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var res *pta.Result
			for i := 0; i < b.N; i++ {
				res, err = pta.Analyze(context.Background(), prog, "insens",
					pta.Options{Budget: -1, Provenance: mode.on})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Work), "work")
			b.ReportMetric(float64(res.NumProvenanceFacts()), "witnessed")
		})
	}
}

// BenchmarkCutShortcut prices the cut-shortcut analysis against its
// two reference points over all nine benchmarks: the insensitive
// analysis (cs adds pattern detection plus graph edits to the same
// context-free solve — the work delta is the whole overhead) and full
// 2objH (the context-sensitive configuration cs replaces; its row
// carries the two budget-exhausted runs).
func BenchmarkCutShortcut(b *testing.B) {
	lim := analysis.Limits{Budget: figures.DefaultBudget}
	for _, spec := range []string{"insens", "cs", "2objH"} {
		b.Run(spec, func(b *testing.B) {
			var rows []report.Row
			for i := 0; i < b.N; i++ {
				reqs := make([]analysis.Request, len(suite.Names()))
				for j, name := range suite.Names() {
					reqs[j] = analysis.Request{
						Source: &analysis.Source{Bench: name},
						Job:    analysis.Job{Spec: spec},
						Limits: lim,
					}
				}
				rows = rows[:0]
				out := make([]analysis.RunResult, len(reqs))
				analysis.RunAll(context.Background(), reqs, 0, func(i int, rr analysis.RunResult) { out[i] = rr })
				for _, rr := range out {
					if rr.Err != nil {
						var be *analysis.BudgetExceededError
						if !errors.As(rr.Err, &be) || rr.Result == nil || rr.Result.Precision == nil {
							b.Fatal(rr.Err)
						}
					}
					rows = append(rows, report.Row{Precision: *rr.Result.Precision})
				}
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkTaint regenerates Figure 9: the taint client over all nine
// kernel-grafted benchmarks under the five-policy spectrum. Besides
// wall time it reports the figure's deterministic aggregates — total
// solver work, timeouts, and the total reported/false-positive sink
// sites across solved runs.
func BenchmarkTaint(b *testing.B) {
	var rows []figures.TaintRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.FigTaint(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var work int64
	timeouts, reported, falsePos := 0, 0, 0
	for _, r := range rows {
		work += r.Work
		if r.TimedOut {
			timeouts++
			continue
		}
		reported += r.Reported
		falsePos += r.FalsePos
	}
	b.ReportMetric(float64(work), "work")
	b.ReportMetric(float64(timeouts), "timeouts")
	b.ReportMetric(float64(reported), "reports")
	b.ReportMetric(float64(falsePos), "falsepos")
}
