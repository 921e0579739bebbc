package pta

import (
	mathbits "math/bits"
	"strings"

	"introspect/internal/ir"
)

// This file implements the solver's derivation-witness recorder and the
// post-solve reconstruction API over it.
//
// When Options.Provenance is set, the solver records, for every
// points-to fact (node, hc) it establishes, the constraint-graph node
// the fact first arrived from. Because a fact is derived exactly once
// (the union kernel reports only bits new to the target set) and the
// source fact necessarily exists before it propagates, the recorded
// "first derivation" edges form a DAG: walking them back from any fact
// terminates at the node where the object was introduced (the
// allocation's target variable, or a callee's this bound by dispatch).
// That walk, reversed, is a shortest-by-construction derivation path
//
//	alloc → var → … → field → … → var
//
// which clients (internal/checkers) attach to diagnostics as a witness.
//
// Recording rides on the word-parallel kernels. Every bit new to the
// target in one edge push has the same source node, so the recorder
// appends one stamp per word of new bits the kernel reports, not one
// entry per fact. A fact's source is found by scanning its node's
// stamps, which only witness reconstruction does, after the solve.
// With the flag off the cost is a nil check per edge push and per word
// of new bits.

// provIntro is the recorded source of a fact introduced directly —
// by an Alloc instruction, the this-binding of a dispatch or a
// returned-receiver shortcut — rather than propagated across a
// constraint edge.
const provIntro int32 = -1

// provStamp records that the bits set in one 64-element word of a
// node's points-to set (elements word*64 … word*64+63) were first
// derived from node from.
type provStamp struct {
	bits uint64
	word int32
	from int32
}

// provRecorder keeps each node's stamps in derivation order. Every fact
// is covered by exactly one stamp of its node.
type provRecorder struct {
	stamps [][]provStamp // indexed by node id; grown on demand
	facts  int           // total bits over all stamps
}

// stamp records that the diff bits of the word starting at element base
// are new to node dst and came from node from. A word that extends
// dst's last stamp (same word, same source) is folded into it.
func (p *provRecorder) stamp(dst, from, base int32, diff uint64) {
	if n := int(dst) + 1; n > len(p.stamps) {
		p.stamps = append(p.stamps, make([][]provStamp, n-len(p.stamps))...)
	}
	p.facts += mathbits.OnesCount64(diff)
	ss, word := p.stamps[dst], base/64
	if k := len(ss) - 1; k >= 0 && ss[k].word == word && ss[k].from == from {
		ss[k].bits |= diff
		return
	}
	p.stamps[dst] = append(ss, provStamp{bits: diff, word: word, from: from})
}

// source returns the first-deriving source node of fact (n, hc):
// provIntro for introduction points, ok=false if the fact was never
// recorded.
func (p *provRecorder) source(n, hc int32) (int32, bool) {
	if int(n) >= len(p.stamps) {
		return 0, false
	}
	word, bit := hc/64, uint64(1)<<uint(hc%64)
	for _, st := range p.stamps[n] {
		if st.word == word && st.bits&bit != 0 {
			return st.from, true
		}
	}
	return 0, false
}

// --- post-solve reconstruction ---

// ProvenanceEnabled reports whether this result was produced with
// Options.Provenance set, i.e. whether Explain can reconstruct
// derivation witnesses.
func (r *Result) ProvenanceEnabled() bool { return r.s.prov != nil }

// NumProvenanceFacts returns the number of facts with a recorded
// derivation (0 when provenance was disabled). When enabled it equals
// the solver's Derivations counter.
func (r *Result) NumProvenanceFacts() int {
	if r.s.prov == nil {
		return 0
	}
	return r.s.prov.facts
}

// WitnessStepKind classifies one step of a derivation witness.
type WitnessStepKind uint8

const (
	// WitnessAlloc is the allocation site the witness object was born
	// at — always the first step.
	WitnessAlloc WitnessStepKind = iota
	// WitnessVar is a (variable, context) node the object flowed
	// through.
	WitnessVar
	// WitnessField is a (heap object, field) cell the object flowed
	// through; Heap names the base object's allocation site.
	WitnessField
	// WitnessStatic is a static-field cell the object flowed through.
	WitnessStatic
)

// WitnessStep is one node of a derivation witness path. The populated
// fields depend on Kind: Var/Ctx for WitnessVar, Heap+Field for
// WitnessField, Field for WitnessStatic, Heap for WitnessAlloc.
type WitnessStep struct {
	Kind  WitnessStepKind
	Var   ir.VarID
	Ctx   Ctx
	Heap  ir.HeapID
	Field ir.FieldID
}

// Witness is a reconstructed derivation path: the object (Heap, HCtx)
// and the alloc-to-use sequence of constraint-graph nodes its flow was
// first established through.
type Witness struct {
	Heap  ir.HeapID
	HCtx  HCtx
	Steps []WitnessStep
}

// describeStep renders one step against the program's symbol tables.
func describeStep(prog *ir.Program, st WitnessStep) string {
	switch st.Kind {
	case WitnessAlloc:
		return "alloc " + prog.HeapName(st.Heap)
	case WitnessField:
		return prog.HeapName(st.Heap) + "." + prog.Fields[st.Field].Name
	case WitnessStatic:
		return "static " + prog.Fields[st.Field].Name
	default:
		return prog.VarName(st.Var)
	}
}

// Strings renders the witness one step per element, alloc first.
func (w *Witness) Strings(prog *ir.Program) []string {
	out := make([]string, len(w.Steps))
	for i, st := range w.Steps {
		out[i] = describeStep(prog, st)
	}
	return out
}

// Format renders the witness as a single "a -> b -> c" line.
func (w *Witness) Format(prog *ir.Program) string {
	return strings.Join(w.Strings(prog), " -> ")
}

// explainChain walks the recorded first-derivation edges back from fact
// (n, hc) and returns the node chain in derivation order (introduction
// point first, n last). ok is false if provenance is disabled or the
// fact has no record (it was never derived).
func (r *Result) explainChain(n, hc int32) ([]int32, bool) {
	p := r.s.prov
	if p == nil || !r.s.ptOf(n).Has(hc) {
		return nil, false
	}
	chain := []int32{n}
	for {
		src, ok := p.source(n, hc)
		if !ok {
			return nil, false
		}
		if src == provIntro {
			break
		}
		n = src
		chain = append(chain, n)
	}
	// Reverse into alloc-to-use order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, true
}

// witnessFromChain decodes a node chain into exported steps.
func (r *Result) witnessFromChain(chain []int32, hc int32) *Witness {
	s := r.s
	w := &Witness{
		Heap:  s.hcHeap[hc],
		HCtx:  s.hcCtx[hc],
		Steps: make([]WitnessStep, 0, len(chain)+1),
	}
	w.Steps = append(w.Steps, WitnessStep{Kind: WitnessAlloc, Heap: w.Heap})
	for _, n := range chain {
		switch s.kind[n] {
		case varNode:
			w.Steps = append(w.Steps, WitnessStep{
				Kind: WitnessVar, Var: ir.VarID(s.nodeA[n]), Ctx: Ctx(s.nodeB[n]),
			})
		case fieldNode:
			w.Steps = append(w.Steps, WitnessStep{
				Kind: WitnessField, Heap: s.hcHeap[s.nodeA[n]], Field: ir.FieldID(s.nodeB[n]),
			})
		default:
			w.Steps = append(w.Steps, WitnessStep{
				Kind: WitnessStatic, Field: ir.FieldID(s.nodeA[n]),
			})
		}
	}
	return w
}

// Explain reconstructs how the fact "(v, ctx) points to hc" was first
// derived. It returns ok=false if provenance recording was disabled,
// the (v, ctx) node does not exist, or the fact does not hold.
func (r *Result) Explain(v ir.VarID, ctx Ctx, hc int32) (*Witness, bool) {
	n, ok := r.s.nodeIdx.get(nodeKey(varNode, int32(v), int32(ctx)))
	if !ok {
		return nil, false
	}
	chain, ok := r.explainChain(n, hc)
	if !ok {
		return nil, false
	}
	return r.witnessFromChain(chain, hc), true
}

// ExplainHeap reconstructs a derivation witness for "v may point to an
// object allocated at h": it picks the first (context, heap-context)
// qualified fact matching (v, h) — deterministically, in node and hc id
// order — and explains it. ok=false if provenance is disabled or v
// never points to h.
func (r *Result) ExplainHeap(v ir.VarID, h ir.HeapID) (*Witness, bool) {
	if r.s.prov == nil {
		return nil, false
	}
	for _, n := range r.s.varNodesOf(v) {
		found := int32(-1)
		r.s.ptOf(n).ForEach(func(hc int32) {
			if found < 0 && r.s.hcHeap[hc] == h {
				found = hc
			}
		})
		if found >= 0 {
			chain, ok := r.explainChain(n, found)
			if !ok {
				return nil, false
			}
			return r.witnessFromChain(chain, found), true
		}
	}
	return nil, false
}
