package figures

import (
	"fmt"
	"strings"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/suite"
	"introspect/internal/taint"
)

// TaintRow is one line of the Figure 9 table: a taint-analysis run of
// one benchmark under one context policy, classified against the taint
// kernel's ground truth.
type TaintRow struct {
	Benchmark string
	Analysis  string
	TimedOut  bool
	// Work is the solver work performed (deterministic time proxy).
	Work int64
	// Reported is the number of distinct sink call sites reported.
	Reported int
	// TruePos / FalsePos classify the reported sites against the
	// kernel's ground truth; Missed counts true flows not reported
	// (must be zero — the encoding is sound — and the format calls it
	// out loudly if not).
	TruePos, FalsePos, Missed int
	// SanitizedClean is true when no sanitized sink was reported.
	SanitizedClean bool
}

// TaintVariants returns the Figure 9 policy spectrum, in display
// order — the same five analyses as the cut-shortcut comparison.
func TaintVariants() []string { return CSVariants() }

// FigTaint is the reproduction's second extension figure (Figure 9, no
// paper counterpart): the taint-analysis client run over all nine
// benchmarks — each grafted with the taint kernel's seeded known flows
// — under the five-policy spectrum, counting true and false sink
// reports. It is the paper's "across the board" argument restated in a
// client where imprecision has a price: every false positive is a
// spurious security finding somebody triages.
//
// No pre-pass sharing here: each taint run's pre-pass solves its own
// instrumented copy of the program, which no other run offers, so the
// introspective variants each solve their own insensitive pass.
// Each row is computed as its run ends, on the worker that ran it, so
// a Result is released then rather than when the whole fleet is done.
// That is safe because the checkers only read the Result (with its own
// instrumented program) and the ground truth, which the benchmark's
// runs share and nothing writes.
func FigTaint(cfg Config) ([]TaintRow, error) {
	variants := TaintVariants()
	var reqs []analysis.Request
	var benches []string
	var truths []*taint.GroundTruth
	for _, b := range suite.Names() {
		base, err := suite.Load(b)
		if err != nil {
			return nil, err
		}
		merged, gt, err := taint.WithKernel(base)
		if err != nil {
			return nil, fmt.Errorf("figures: taint kernel on %s: %w", b, err)
		}
		for _, v := range variants {
			reqs = append(reqs, analysis.Request{
				Prog:   merged,
				Job:    analysis.Job{Spec: v, Taint: taint.KernelSpec()},
				Limits: cfg.Limits(),
			})
			benches = append(benches, b)
			truths = append(truths, gt)
		}
	}
	rows := make([]TaintRow, len(reqs))
	if err := run(cfg, reqs, func(i int, res *analysis.Result) { rows[i] = taintRow(benches[i], res, truths[i]) }); err != nil {
		return nil, err
	}
	return rows, nil
}

// taintRow classifies one Figure 9 run against its benchmark's ground
// truth.
func taintRow(bench string, res *analysis.Result, gt *taint.GroundTruth) TaintRow {
	row := TaintRow{
		Benchmark: bench,
		Analysis:  res.Analysis,
		TimedOut:  !res.Main.Complete,
		Work:      res.Main.Work,
	}
	if row.TimedOut {
		return row
	}
	tg := &checkers.Target{Prog: res.Prog, Res: res.Main, Taint: res.TaintInfo}
	c := checkers.CountAgainst(tg, gt)
	row.Reported, row.TruePos, row.FalsePos = c.Reported, c.TruePos, c.FalsePos
	row.Missed = len(gt.Tainted) - c.TruePos
	row.SanitizedClean = true
	sanitized := map[string]bool{}
	for _, n := range gt.Sanitized {
		sanitized[n] = true
	}
	for _, f := range checkers.SinkFlows(tg) {
		if sanitized[res.Prog.InvoName(f.Invo)] {
			row.SanitizedClean = false
		}
	}
	return row
}

// FormatFigTaint renders the Figure 9 table plus its summary trailer.
// Data lines end in a word (clean/LEAK/MISS or a dash), never a digit,
// so the golden tests' ms-column scrub cannot touch them — every
// number in this figure is deterministic and asserted byte-exact.
func FormatFigTaint(rows []TaintRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 (extension): taint client precision per context policy (seeded kernel flows)\n")
	fmt.Fprintf(&sb, "%-10s %-16s %10s %8s %9s %10s %10s\n",
		"benchmark", "analysis", "work(K)", "reports", "true-pos", "false-pos", "sanitizer")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Fprintf(&sb, "%-10s %-16s %10s %8s %9s %10s %10s\n",
				r.Benchmark, r.Analysis, "TIMEOUT", "-", "-", "-", "-")
			continue
		}
		status := "clean"
		if !r.SanitizedClean {
			status = "LEAK"
		}
		if r.Missed > 0 {
			status = "MISS"
		}
		fmt.Fprintf(&sb, "%-10s %-16s %10d %8d %9d %10d %10s\n",
			r.Benchmark, r.Analysis, r.Work/1000, r.Reported, r.TruePos, r.FalsePos, status)
	}
	sb.WriteString(FormatFigTaintTrailer(rows))
	return sb.String()
}

// FormatFigTaintTrailer renders the per-policy totals over the solved
// benchmarks: aggregate false positives (the figure's headline), plus
// the soundness line asserting no true flow was missed and no
// sanitized sink leaked.
func FormatFigTaintTrailer(rows []TaintRow) string {
	type agg struct {
		fp, solved, missed, leaks int
	}
	byVar := map[string]*agg{}
	for _, v := range TaintVariants() {
		byVar[v] = &agg{}
	}
	for _, r := range rows {
		a := byVar[r.Analysis]
		if a == nil || r.TimedOut {
			continue
		}
		a.solved++
		a.fp += r.FalsePos
		a.missed += r.Missed
		if !r.SanitizedClean {
			a.leaks++
		}
	}
	var sb strings.Builder
	var parts []string
	missed, leaks := 0, 0
	for _, v := range TaintVariants() {
		a := byVar[v]
		parts = append(parts, fmt.Sprintf("%s %d (of %d solved)", v, a.fp, a.solved))
		missed += a.missed
		leaks += a.leaks
	}
	fmt.Fprintf(&sb, "false positives per policy: %s.\n", strings.Join(parts, ", "))
	if missed == 0 && leaks == 0 {
		fmt.Fprintf(&sb, "every solved run reported all true flows and kept the sanitized sink clean.\n")
	} else {
		fmt.Fprintf(&sb, "SOUNDNESS VIOLATION: %d true flows missed, %d sanitized sinks leaked.\n", missed, leaks)
	}
	return sb.String()
}
