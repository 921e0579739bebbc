// Package report computes the precision metrics the paper uses to
// compare analyses (Figures 5-7), and formats result tables.
//
// The paper's three precision metrics, where lower is better:
//
//   - virtual call sites that cannot be devirtualized (resolved to two
//     or more target methods);
//   - reachable methods (an imprecise analysis inflates the call graph);
//   - reachable cast instructions that may fail (the points-to set of
//     the cast operand contains an object incompatible with the target
//     type).
package report

import (
	"fmt"
	"sort"

	"introspect/internal/checkers"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/taint"
)

// Precision holds the paper's three precision metrics for one analysis
// run, plus the run's cost figures.
type Precision struct {
	Analysis string `json:"analysis"`
	// TimedOut flags a run stopped before fixpoint (budget exhausted or
	// cancelled): the paper leaves such bars out of its charts.
	TimedOut bool `json:"timed_out,omitempty"`

	// PolyVCalls is the number of reachable virtual call sites resolved
	// to more than one target ("calls that cannot be devirtualized").
	PolyVCalls int `json:"poly_vcalls"`
	// ReachableMethods is the number of distinct reachable methods.
	ReachableMethods int `json:"reachable_methods"`
	// MayFailCasts is the number of reachable cast instructions whose
	// operand may hold an incompatible object.
	MayFailCasts int `json:"may_fail_casts"`

	// VarPTSize is the context-qualified VarPointsTo size (cost proxy).
	VarPTSize int64 `json:"var_pt_size"`
	// PeakPT is the largest single points-to set of the run — the
	// paper's set-explosion indicator.
	PeakPT int `json:"peak_pt"`
	// Work is the solver work performed (the deterministic time proxy).
	Work int64 `json:"work"`
	// Derivations is the points-to facts established: the size of the
	// fixpoint, independent of the order facts were derived in.
	Derivations int64 `json:"derivations,omitempty"`
	// ElapsedMS is wall-clock milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Measure computes the precision metrics of a result. For timed-out
// results the numbers are still computed but flagged: the paper leaves
// such bars out of its precision charts.
//
// The three counters come from internal/checkers (PrecisionCounts), the
// same primitives the ptalint diagnostics use, so figures and lint
// findings can never disagree about what counts as a may-fail cast or
// a polymorphic call. inj is the run's taint injection, nil for a run
// without one; its synthetic objects fail no cast here, as in the
// may-fail-cast checker.
func Measure(res *pta.Result, inj *taint.Injection) Precision {
	c := checkers.PrecisionCounts(res, inj)
	return Precision{
		Analysis:         res.Analysis,
		TimedOut:         !res.Complete,
		PolyVCalls:       c.PolyVCalls,
		ReachableMethods: c.ReachableMethods,
		MayFailCasts:     c.MayFailCasts,
		VarPTSize:        res.VarPTSize(),
		PeakPT:           res.PeakPTSize(),
		Work:             res.Work,
		Derivations:      res.Derivations,
		ElapsedMS:        res.Elapsed.Milliseconds(),
	}
}

// UncaughtExceptions returns the allocation sites of exceptions that
// may escape the program's entry methods uncaught, as a sorted list of
// heap names with their types.
func UncaughtExceptions(res *pta.Result) []string {
	prog := res.Prog
	var out []string
	seen := map[ir.HeapID]bool{}
	for _, e := range prog.Entries {
		res.VarHeaps(prog.Methods[e].Exc).ForEach(func(h int32) {
			hid := ir.HeapID(h)
			if seen[hid] {
				return
			}
			seen[hid] = true
			out = append(out, fmt.Sprintf("%s (%s)", prog.HeapName(hid),
				prog.TypeName(prog.HeapType(hid))))
		})
	}
	sort.Strings(out)
	return out
}

// PolySites returns readable names of the polymorphic virtual call
// sites of a result, for diagnosing precision differences.
func PolySites(res *pta.Result) []string {
	prog := res.Prog
	var out []string
	for _, invo := range checkers.PolyVirtualCalls(res) {
		out = append(out, fmt.Sprintf("%s (%d targets)",
			prog.InvoName(invo), res.NumInvoTargets(invo)))
	}
	return out
}

// Row is one line of a benchmark × analysis result table.
type Row struct {
	Benchmark string
	Precision
}

// FormatTable renders rows grouped by benchmark in a fixed-width table
// matching the figures' content: time proxy plus the three precision
// metrics. Timed-out entries print "TIMEOUT" in place of precision
// numbers, like the paper's missing bars.
func FormatTable(title string, rows []Row) string {
	out := fmt.Sprintf("%s\n", title)
	out += fmt.Sprintf("%-10s %-16s %10s %9s %10s %9s %8s\n",
		"benchmark", "analysis", "work(K)", "polycall", "reachmeth", "maycast", "ms")
	for _, r := range rows {
		if r.TimedOut {
			out += fmt.Sprintf("%-10s %-16s %10s %9s %10s %9s %8s\n",
				r.Benchmark, r.Analysis, "TIMEOUT", "-", "-", "-", "-")
			continue
		}
		out += fmt.Sprintf("%-10s %-16s %10d %9d %10d %9d %8d\n",
			r.Benchmark, r.Analysis, r.Work/1000, r.PolyVCalls, r.ReachableMethods,
			r.MayFailCasts, r.ElapsedMS)
	}
	return out
}
