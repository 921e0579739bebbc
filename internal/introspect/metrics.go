// Package introspect implements introspective context-sensitivity, the
// core contribution of "Introspective Analysis: Context-Sensitivity,
// Across the Board" (PLDI 2014).
//
// The technique runs a cheap context-insensitive points-to analysis,
// computes cost metrics over its results (Section 3 of the paper),
// selects the program elements whose refinement would be
// disproportionately expensive, and re-runs the analysis with deep
// context everywhere except those elements.
package introspect

import (
	"introspect/internal/bits"
	"introspect/internal/ir"
	"introspect/internal/pta"
)

// Metrics holds the paper's six cost metrics, computed from a
// context-insensitive analysis result. All slices are indexed by the
// corresponding ir identifier.
type Metrics struct {
	// InFlow (metric 1): per invocation site, the cumulative size of the
	// points-to sets of actual arguments (count of distinct (arg, heap)
	// pairs), for sites with at least one call-graph edge.
	InFlow []int

	// TotalVolume (metric 2): per method, the cumulative size of the
	// points-to sets over all its local variables.
	TotalVolume []int
	// MaxVarPointsTo (metric 2, variant): per method, the maximum
	// points-to set size over its local variables.
	MaxVarPointsTo []int

	// MaxFieldPointsTo (metric 3): per allocation site, the maximum
	// field points-to set size over its fields.
	MaxFieldPointsTo []int
	// TotalFieldPointsTo (metric 3, variant): per allocation site, the
	// total field points-to size over its fields.
	TotalFieldPointsTo []int

	// MaxVarFieldPointsTo (metric 4): per method, the maximum
	// MaxFieldPointsTo among the objects pointed to by the method's
	// local variables.
	MaxVarFieldPointsTo []int

	// PointedByVars (metric 5): per allocation site, the number of local
	// variables pointing to it.
	PointedByVars []int

	// PointedByObjs (metric 6): per allocation site, the number of
	// (object, field) pairs pointing to it.
	PointedByObjs []int
}

// Compute derives all six metrics from an analysis result. Points-to
// sets are first projected to their context-insensitive views, matching
// the paper's setting where the metrics are queries over the results of
// the context-insensitive first pass.
func Compute(res *pta.Result) *Metrics {
	prog := res.Prog
	m := &Metrics{
		InFlow:              make([]int, prog.NumInvos()),
		TotalVolume:         make([]int, prog.NumMethods()),
		MaxVarPointsTo:      make([]int, prog.NumMethods()),
		MaxFieldPointsTo:    make([]int, prog.NumHeaps()),
		TotalFieldPointsTo:  make([]int, prog.NumHeaps()),
		MaxVarFieldPointsTo: make([]int, prog.NumMethods()),
		PointedByVars:       make([]int, prog.NumHeaps()),
		PointedByObjs:       make([]int, prog.NumHeaps()),
	}

	// Context-insensitive projection of VarPointsTo.
	varHeaps := make([]*bits.Set, prog.NumVars())
	res.ForEachVarCtx(func(v ir.VarID, _ pta.Ctx, pt *bits.Set) {
		s := varHeaps[v]
		if s == nil {
			s = &bits.Set{}
			varHeaps[v] = s
		}
		pt.ForEach(func(hc int32) { s.Add(int32(res.HeapOf(hc))) })
	})

	// Metrics 2 (volume, max) and 5 (pointed-by-vars).
	for v, s := range varHeaps {
		if s == nil {
			continue
		}
		n := s.Len()
		meth := prog.Vars[v].Method
		m.TotalVolume[meth] += n
		if n > m.MaxVarPointsTo[meth] {
			m.MaxVarPointsTo[meth] = n
		}
		s.ForEach(func(h int32) { m.PointedByVars[h]++ })
	}

	// Context-insensitive projection of FieldPointsTo, then metrics 3
	// (max/total field points-to) and 6 (pointed-by-objs).
	type hf struct {
		h ir.HeapID
		f ir.FieldID
	}
	fieldSets := make(map[hf]*bits.Set)
	res.ForEachFieldCell(func(baseHC int32, f ir.FieldID, pt *bits.Set) {
		key := hf{res.HeapOf(baseHC), f}
		s := fieldSets[key]
		if s == nil {
			s = &bits.Set{}
			fieldSets[key] = s
		}
		pt.ForEach(func(hc int32) { s.Add(int32(res.HeapOf(hc))) })
	})
	for key, s := range fieldSets { //introvet:allow only sums, maxima and counts, which no visiting order can change
		n := s.Len()
		m.TotalFieldPointsTo[key.h] += n
		if n > m.MaxFieldPointsTo[key.h] {
			m.MaxFieldPointsTo[key.h] = n
		}
		s.ForEach(func(h int32) { m.PointedByObjs[h]++ })
	}

	// Metric 4: max field points-to among objects pointed to by each
	// method's locals.
	for v, s := range varHeaps {
		if s == nil {
			continue
		}
		meth := prog.Vars[v].Method
		s.ForEach(func(h int32) {
			if m.MaxFieldPointsTo[h] > m.MaxVarFieldPointsTo[meth] {
				m.MaxVarFieldPointsTo[meth] = m.MaxFieldPointsTo[h]
			}
		})
	}

	// Metric 1: argument in-flow per invocation site with at least one
	// call-graph edge (the paper's HEAPSPERINVOCATIONPERARG count is
	// over distinct (arg, heap) pairs, so a variable passed at two
	// argument positions counts once).
	for mi := range prog.Methods {
		for ci := range prog.Methods[mi].Calls {
			c := &prog.Methods[mi].Calls[ci]
			if !res.InvoReached(c.Invo) {
				continue
			}
			seen := make(map[ir.VarID]bool, len(c.Args))
			for _, a := range c.Args {
				if seen[a] {
					continue
				}
				seen[a] = true
				if varHeaps[a] != nil {
					m.InFlow[c.Invo] += varHeaps[a].Len()
				}
			}
		}
	}
	return m
}
