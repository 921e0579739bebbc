package introspect

import "introspect/internal/ir"

// Decision is one refine/demote verdict of an introspection heuristic:
// which program element was scored, by which metric clause, what value
// the first pass observed, the threshold it was held against, and the
// outcome. The decision log is the paper's tunable-precision dial made
// auditable — a client can see exactly why a site kept or lost context
// instead of reverse-engineering the Figure-4 percentages.
//
// The field order is the wire format (decisions travel inside
// analysis.RunJSON and pta/v1 stream events); append, never reorder.
type Decision struct {
	// Kind classifies the element: "heap" (allocation site), "invo"
	// (call site), or "method".
	Kind string `json:"kind"`
	// Site is the element's human-readable name (ir naming).
	Site string `json:"site"`
	// Metric names the clause that scored the element — a single
	// metric name ("pointed-by-vars") or a product
	// ("total-field-points-to*pointed-by-vars").
	Metric string `json:"metric"`
	// Value is the observed score, Threshold the constant it was
	// compared against. Verdict "demote" means Value > Threshold: the
	// element is excluded from refinement and analyzed
	// context-insensitively.
	Value     int    `json:"value"`
	Threshold int    `json:"threshold"`
	Verdict   string `json:"verdict"` // "refine" | "demote"
}

// Decision verdicts.
const (
	VerdictRefine = "refine"
	VerdictDemote = "demote"
)

// String is the Decision.Kind of the domain's elements.
func (d domain) String() string {
	switch d {
	case invoDomain:
		return "invo"
	case methodDomain:
		return "method"
	default:
		return "heap"
	}
}

// site resolves an element ID of the domain to its readable name.
func (d domain) site(prog *ir.Program, id int) string {
	switch d {
	case invoDomain:
		return prog.InvoName(ir.InvoID(id))
	case methodDomain:
		return prog.MethodName(ir.MethodID(id))
	default:
		return prog.HeapName(ir.HeapID(id))
	}
}
