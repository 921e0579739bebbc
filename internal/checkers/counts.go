package checkers

import (
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/taint"
)

// Counts are the paper's three precision metrics, computed from the
// same primitives the checkers report diagnostics with. Lower is
// better for all three. internal/report derives its Precision struct
// from this, so a checker fix and a figure change can never disagree.
type Counts struct {
	// PolyVCalls is the number of reachable virtual call sites resolved
	// to more than one target ("calls that cannot be devirtualized").
	PolyVCalls int
	// ReachableMethods is the number of distinct reachable methods.
	ReachableMethods int
	// MayFailCasts is the number of reachable cast instructions whose
	// operand may hold an incompatible object (see CastMayFail).
	MayFailCasts int
}

// PrecisionCounts computes the three metrics over one result in a
// single pass over the reachable methods. inj is the run's taint
// injection, nil for a run without one (see CastMayFail).
func PrecisionCounts(res *pta.Result, inj *taint.Injection) Counts {
	prog := res.Prog
	c := Counts{ReachableMethods: res.NumReachableMethods()}
	for mi := range prog.Methods {
		m := &prog.Methods[mi]
		if !res.MethodReachable(ir.MethodID(mi)) {
			continue
		}
		for ci := range m.Calls {
			call := &m.Calls[ci]
			if call.Kind == ir.Virtual && res.NumInvoTargets(call.Invo) > 1 {
				c.PolyVCalls++
			}
		}
		for _, cast := range m.Casts {
			if _, fail := CastMayFail(res, inj, cast); fail {
				c.MayFailCasts++
			}
		}
	}
	return c
}

// PolyVirtualCalls returns the reachable virtual call sites resolved
// to more than one target, in invocation-site order — the sites
// PrecisionCounts counts, for reports that want to name them.
func PolyVirtualCalls(res *pta.Result) []ir.InvoID {
	prog := res.Prog
	var out []ir.InvoID
	for mi := range prog.Methods {
		m := &prog.Methods[mi]
		if !res.MethodReachable(ir.MethodID(mi)) {
			continue
		}
		for ci := range m.Calls {
			c := &m.Calls[ci]
			if c.Kind == ir.Virtual && res.NumInvoTargets(c.Invo) > 1 {
				out = append(out, c.Invo)
			}
		}
	}
	return out
}
