package analysis

import (
	"time"

	"introspect/internal/pta"
)

// Stats is the per-stage observability record. Every stage reports
// Stage and Wall; stages that run a solver pass (pre-pass, main-pass)
// also fill the solver counters. The JSON encoding is stable — it is
// the line format of cmd/pta -json, meant for mechanical trajectory
// collection.
type Stats struct {
	// Stage is the stage name (StageFrontend, StagePrePass, ...).
	Stage string `json:"stage"`
	// Analysis is the pass's analysis name, when the stage ran one.
	Analysis string `json:"analysis,omitempty"`
	// Wall is the stage's wall-clock time in nanoseconds.
	Wall time.Duration `json:"wall_ns"`

	// Work is the solver's abstract work-unit count (the deterministic
	// time proxy the budget is charged against).
	Work int64 `json:"work,omitempty"`
	// Derivations is the number of points-to facts established.
	Derivations int64 `json:"derivations,omitempty"`
	// Propagations is the number of (element, edge) propagation
	// attempts along subset constraints.
	Propagations int64 `json:"propagations,omitempty"`
	// Nodes and Edges are the constraint-graph size.
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// CallGraphEdges counts context-qualified call-graph edges.
	CallGraphEdges int `json:"call_graph_edges,omitempty"`
	// Contexts is the number of distinct calling contexts created.
	Contexts int `json:"contexts,omitempty"`
	// MethodContexts is the reachable (method, context) pair count.
	MethodContexts int `json:"method_contexts,omitempty"`
	// HeapContexts is the materialized (heap, heap-context) pair count.
	HeapContexts int `json:"heap_contexts,omitempty"`
	// ReachableMethods is the distinct reachable method count.
	ReachableMethods int `json:"reachable_methods,omitempty"`
	// VarPTSize / FieldPTSize are the context-qualified points-to
	// relation sizes (the paper's analysis-size indicators).
	VarPTSize   int64 `json:"var_pt_size,omitempty"`
	FieldPTSize int64 `json:"field_pt_size,omitempty"`
	// PeakPTSize is the largest single points-to set of the pass.
	PeakPTSize int `json:"peak_pt_size,omitempty"`

	// BudgetExceeded / Cancelled flag a pass stopped before fixpoint.
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
	Cancelled      bool `json:"cancelled,omitempty"`
}

// collectStats reads the per-stage counters off a solver result.
func collectStats(r *pta.Result) Stats {
	nodes, edges := r.ConstraintStats()
	return Stats{
		Analysis:         r.Analysis,
		Wall:             r.Elapsed,
		Work:             r.Work,
		Derivations:      r.Derivations,
		Propagations:     r.Propagations,
		Nodes:            nodes,
		Edges:            edges,
		CallGraphEdges:   r.NumCallGraphEdges(),
		Contexts:         r.NumContexts(),
		MethodContexts:   r.NumMethodContexts(),
		HeapContexts:     r.NumHeapContexts(),
		ReachableMethods: r.NumReachableMethods(),
		VarPTSize:        r.VarPTSize(),
		FieldPTSize:      r.FieldPTSize(),
		PeakPTSize:       r.PeakPTSize(),
	}
}
