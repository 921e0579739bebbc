package pta

import (
	"fmt"
	"sort"
	"time"

	"introspect/internal/bits"
	"introspect/internal/ir"
)

// Result is the outcome of a points-to analysis run. It exposes the
// computed VarPointsTo, FieldPointsTo, Reachable, and CallGraph
// relations of the paper's model through query methods.
//
// If Complete is false the result is a sound-in-progress under-
// approximation: the analysis was stopped before fixpoint, either by
// the work budget (the reproduction's analogue of the paper's
// 90-minute timeouts — Solve's error wraps ErrBudgetExceeded) or by
// context cancellation. Incomplete results should not be used for
// precision comparisons.
type Result struct {
	Prog     *ir.Program
	Analysis string
	// Complete reports whether the solver reached fixpoint.
	Complete bool
	// Work is the abstract work-unit count (the deterministic time
	// proxy the budget is charged against).
	Work int64
	// Derivations is the number of points-to facts established.
	Derivations int64
	// Propagations is the number of (element, edge) propagation
	// attempts along subset constraints.
	Propagations int64
	Elapsed      time.Duration

	s *solver
}

// PeakPTSize returns the largest points-to set of any constraint-graph
// node — the paper's "single points-to set over a certain size"
// explosion indicator.
func (r *Result) PeakPTSize() int { return r.s.peakPT }

// --- reachability and call graph ---

// ReachableMethods returns the distinct reachable methods, sorted.
func (r *Result) ReachableMethods() []ir.MethodID {
	out := make([]ir.MethodID, 0, r.s.reachMeths.Len())
	r.s.reachMeths.ForEach(func(m int32) { out = append(out, ir.MethodID(m)) })
	return out
}

// NumReachableMethods returns the number of distinct reachable methods.
func (r *Result) NumReachableMethods() int { return r.s.reachMeths.Len() }

// MethodReachable reports whether method m is reachable in any context.
func (r *Result) MethodReachable(m ir.MethodID) bool {
	return r.s.reachMeths.Has(int32(m))
}

// NumMethodContexts returns the number of reachable (method, context)
// pairs — the context-qualified REACHABLE relation size.
func (r *Result) NumMethodContexts() int { return len(r.s.mcMeth) }

// InvoTargets returns the methods that invocation site i was resolved
// to, sorted. Nil if the site was never reached.
func (r *Result) InvoTargets(i ir.InvoID) []ir.MethodID {
	m := r.s.invoTargets[i]
	if m == nil {
		return nil
	}
	out := make([]ir.MethodID, 0, len(m))
	for t := range m { //introvet:allow collected set is sorted before returning
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// NumInvoTargets returns the number of distinct resolved targets of
// invocation site i (0 if unreached).
func (r *Result) NumInvoTargets(i ir.InvoID) int { return len(r.s.invoTargets[i]) }

// InvoReached reports whether invocation site i has at least one
// call-graph edge.
func (r *Result) InvoReached(i ir.InvoID) bool { return len(r.s.invoTargets[i]) > 0 }

// NumCallGraphEdges returns the number of context-qualified call-graph
// edges (invo, callerCtx, meth, calleeCtx).
func (r *Result) NumCallGraphEdges() int { return r.s.cgSeen.len() }

// --- heap-context pairs ---

// HeapOf maps an hc id (element of a points-to set) to its allocation
// site.
func (r *Result) HeapOf(hc int32) ir.HeapID { return r.s.hcHeap[hc] }

// HCtxOf maps an hc id to its heap context.
func (r *Result) HCtxOf(hc int32) HCtx { return r.s.hcCtx[hc] }

// NumHeapContexts returns the number of distinct (heap, heap-context)
// pairs materialized.
func (r *Result) NumHeapContexts() int { return len(r.s.hcHeap) }

// --- VarPointsTo ---

// ForEachVarCtx visits every (var, ctx) node with a non-empty points-to
// set; pt elements are hc ids (use HeapOf/HCtxOf to decode).
func (r *Result) ForEachVarCtx(fn func(v ir.VarID, ctx Ctx, pt *bits.Set)) {
	for n := range r.s.kind {
		if r.s.kind[n] == varNode && r.s.ptLen[n] != 0 {
			fn(ir.VarID(r.s.nodeA[n]), Ctx(r.s.nodeB[n]), r.s.ptOf(int32(n)))
		}
	}
}

// VarHeaps returns the set of allocation sites v may point to, unified
// over all contexts (the context-insensitive projection of
// VarPointsTo).
func (r *Result) VarHeaps(v ir.VarID) *bits.Set {
	out := &bits.Set{}
	for _, n := range r.s.varNodesOf(v) {
		r.s.ptOf(n).ForEach(func(hc int32) { out.Add(int32(r.s.hcHeap[hc])) })
	}
	return out
}

// NumVarHeaps returns |VarHeaps(v)| without materializing the set twice.
func (r *Result) NumVarHeaps(v ir.VarID) int { return r.VarHeaps(v).Len() }

// VarPTSize returns the number of context-qualified VarPointsTo tuples:
// Σ over (var, ctx) nodes of |pt|. This is the paper's primary
// analysis-size indicator.
func (r *Result) VarPTSize() int64 {
	var n int64
	for i := range r.s.kind {
		if r.s.kind[i] == varNode {
			n += int64(r.s.ptLen[i])
		}
	}
	return n
}

// --- FieldPointsTo ---

// ForEachFieldCell visits every (base hc, field) cell with a non-empty
// points-to set.
func (r *Result) ForEachFieldCell(fn func(baseHC int32, f ir.FieldID, pt *bits.Set)) {
	for n := range r.s.kind {
		if r.s.kind[n] == fieldNode && r.s.ptLen[n] != 0 {
			fn(r.s.nodeA[n], ir.FieldID(r.s.nodeB[n]), r.s.ptOf(int32(n)))
		}
	}
}

// FieldPTSize returns the number of context-qualified FieldPointsTo
// tuples.
func (r *Result) FieldPTSize() int64 {
	var n int64
	for i := range r.s.kind {
		if r.s.kind[i] == fieldNode {
			n += int64(r.s.ptLen[i])
		}
	}
	return n
}

// HeapFieldHeaps returns, for allocation site h, the set of allocation
// sites reachable through field f of any context-qualified instance of
// h (a context-insensitive projection of FieldPointsTo).
func (r *Result) HeapFieldHeaps(h ir.HeapID, f ir.FieldID) *bits.Set {
	out := &bits.Set{}
	for n := range r.s.kind {
		if r.s.kind[n] == fieldNode && ir.FieldID(r.s.nodeB[n]) == f &&
			r.s.hcHeap[r.s.nodeA[n]] == h {
			r.s.ptOf(int32(n)).ForEach(func(hc int32) { out.Add(int32(r.s.hcHeap[hc])) })
		}
	}
	return out
}

// NumContexts returns the number of distinct contexts created in the
// shared context table during (and before) this run.
func (r *Result) NumContexts() int { return r.s.tab.Len() }

// Stats summarizes the analysis outcome for display.
type RunStats struct {
	Analysis    string
	Complete    bool
	Work        int64
	Elapsed     time.Duration
	VarPTSize   int64
	FieldPTSize int64
	Reachable   int
	MethodCtxs  int
	CGEdges     int
	HeapCtxs    int
}

// Stats computes summary statistics.
func (r *Result) Stats() RunStats {
	return RunStats{
		Analysis:    r.Analysis,
		Complete:    r.Complete,
		Work:        r.Work,
		Elapsed:     r.Elapsed,
		VarPTSize:   r.VarPTSize(),
		FieldPTSize: r.FieldPTSize(),
		Reachable:   r.NumReachableMethods(),
		MethodCtxs:  r.NumMethodContexts(),
		CGEdges:     r.NumCallGraphEdges(),
		HeapCtxs:    r.NumHeapContexts(),
	}
}

func (st RunStats) String() string {
	to := ""
	if !st.Complete {
		to = " TIMEOUT"
	}
	return fmt.Sprintf("%-14s%s work=%d varPT=%d fldPT=%d reach=%d methCtx=%d cg=%d elapsed=%v",
		st.Analysis, to, st.Work, st.VarPTSize, st.FieldPTSize, st.Reachable, st.MethodCtxs, st.CGEdges,
		st.Elapsed.Round(time.Millisecond))
}

// VarsPointingTo returns the variables whose (projected) points-to
// sets include allocation site h — the reverse points-to query clients
// like escape analyses ask — in var id order.
func (r *Result) VarsPointingTo(h ir.HeapID) []ir.VarID {
	var out []ir.VarID
	for v := ir.VarID(0); int(v) < len(r.s.varOff)-1; v++ {
		found := false
		for _, n := range r.s.varNodesOf(v) {
			r.s.ptOf(n).ForEach(func(hc int32) {
				if r.s.hcHeap[hc] == h {
					found = true
				}
			})
			if found {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// ConstraintStats reports the size of the solver's constraint graph.
func (r *Result) ConstraintStats() (nodes, edges int) {
	return len(r.s.kind), len(r.s.edges) - 1
}
