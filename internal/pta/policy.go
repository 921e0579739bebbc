package pta

import (
	"fmt"
	"strconv"
	"strings"

	"introspect/internal/bits"
	"introspect/internal/ir"
)

// Flavor is the kind of context-sensitivity.
type Flavor uint8

const (
	// Insensitive uses the single empty context everywhere.
	Insensitive Flavor = iota
	// CallSite qualifies methods by their most recent call sites (kCFA).
	CallSite
	// Object qualifies methods by the allocation sites of their receiver
	// chain (Milanova et al.'s object-sensitivity).
	Object
	// TypeSens is type-sensitivity (Smaragdakis et al., POPL 2011): like
	// Object but each context element is the class containing the
	// allocation site, making contexts coarser and cheaper.
	TypeSens
	// Hybrid is uniform hybrid object-sensitivity (Kastrinis &
	// Smaragdakis, PLDI 2013 — the paper's reference [12]): virtual
	// calls use object contexts, while static calls push the
	// invocation site instead of merely propagating the caller's
	// context. Context elements of both kinds mix in one context.
	Hybrid
	// CutShortcut runs with no contexts at all (every context empty,
	// like Insensitive) and instead recovers precision through
	// pre-solve constraint-graph edits: imprecision-introducing flow
	// edges at method boundaries are cut and compensated by direct
	// shortcut edges at each call site (Ma et al., "Context
	// Sensitivity without Contexts: A Cut-Shortcut Approach", PLDI
	// 2023). The context half is a plain insensitive policy; the edit
	// set comes from the pattern detector in internal/cutshortcut and
	// is passed to Solve beside it.
	CutShortcut
)

func (f Flavor) String() string {
	switch f {
	case Insensitive:
		return "insens"
	case CallSite:
		return "call"
	case Object:
		return "obj"
	case TypeSens:
		return "type"
	case Hybrid:
		return "hyb"
	case CutShortcut:
		return "cs"
	}
	return "unknown"
}

// Spec names a concrete context abstraction: a flavor, a context depth
// K, and a heap-context depth HeapK (0 for a context-insensitive heap).
type Spec struct {
	Flavor Flavor
	K      int
	HeapK  int
}

// String renders the conventional analysis name, e.g. "2objH", "1call",
// "insens", "cs".
func (s Spec) String() string {
	if s.Flavor == CutShortcut {
		return "cs"
	}
	if s.Flavor == Insensitive || s.K == 0 {
		return "insens"
	}
	name := fmt.Sprintf("%d%s", s.K, s.Flavor)
	if s.HeapK > 0 {
		name += "H"
	}
	return name
}

// ParseSpec parses names like "insens", "2objH", "1call", "2typeH",
// "cs". "cs+insens" is an accepted alias for "cs": cut-shortcut runs
// with insensitive contexts by construction, so the suffix only spells
// out the fallback the family already implies.
func ParseSpec(name string) (Spec, error) {
	if name == "insens" || name == "ci" || name == "" {
		return Spec{Flavor: Insensitive}, nil
	}
	if name == "cs" || name == "cs+insens" {
		return Spec{Flavor: CutShortcut}, nil
	}
	rest := name
	heap := false
	if strings.HasSuffix(rest, "H") {
		heap = true
		rest = strings.TrimSuffix(rest, "H")
	}
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if i == 0 {
		return Spec{}, fmt.Errorf("pta: cannot parse analysis name %q", name)
	}
	k, err := strconv.Atoi(rest[:i])
	if err != nil || k < 1 || k > maxDepth {
		return Spec{}, fmt.Errorf("pta: bad context depth in %q", name)
	}
	var fl Flavor
	switch rest[i:] {
	case "call", "cfa":
		fl = CallSite
	case "obj":
		fl = Object
	case "type":
		fl = TypeSens
	case "hyb":
		fl = Hybrid
	default:
		return Spec{}, fmt.Errorf("pta: unknown flavor in %q", name)
	}
	s := Spec{Flavor: fl, K: k}
	if heap {
		s.HeapK = 1
	}
	return s, nil
}

// Policy is the paper's pair of context constructors. Record is invoked
// at allocation sites to build the heap context of the new object; Merge
// is invoked at call sites to build the callee's calling context.
//
// MergeStatic handles calls with no receiver object: call-site-sensitive
// policies still push the invocation site, while object- and
// type-sensitive policies propagate the caller's context unchanged
// (Doop's standard treatment).
type Policy interface {
	// Name identifies the analysis (e.g. "2objH").
	Name() string
	// Record builds the heap context for an allocation of heap in a
	// method analyzed under ctx.
	Record(heap ir.HeapID, ctx Ctx) HCtx
	// Merge builds the callee context for a call at invo, dispatching to
	// toMeth on a receiver object heap qualified by hctx, from a caller
	// analyzed under callerCtx.
	Merge(heap ir.HeapID, hctx HCtx, invo ir.InvoID, toMeth ir.MethodID, callerCtx Ctx) Ctx
	// MergeStatic builds the callee context for a receiver-less call.
	MergeStatic(invo ir.InvoID, toMeth ir.MethodID, callerCtx Ctx) Ctx
}

// basePolicy implements the standard (non-introspective) abstractions.
type basePolicy struct {
	spec Spec
	tab  *Table
	// heapClass[h] is the tagged context element for type-sensitivity:
	// the class containing allocation site h.
	heapClass []int32
}

// NewPolicy builds the context policy implementing spec for prog,
// creating contexts in tab. For CutShortcut the policy is insensitive
// by construction and named "cs"; the full cut-shortcut analysis
// passes the edit set internal/cutshortcut detects to Solve with it.
func NewPolicy(spec Spec, prog *ir.Program, tab *Table) Policy {
	p := &basePolicy{spec: spec, tab: tab}
	if spec.Flavor == TypeSens {
		p.heapClass = make([]int32, prog.NumHeaps())
		for h := range p.heapClass {
			m := prog.Heaps[h].Method
			p.heapClass[h] = elemType(int32(prog.Methods[m].Owner))
		}
	}
	return p
}

func (p *basePolicy) Name() string { return p.spec.String() }

func (p *basePolicy) Record(heap ir.HeapID, ctx Ctx) HCtx {
	if p.spec.Flavor == Insensitive || p.spec.Flavor == CutShortcut || p.spec.HeapK == 0 {
		return EmptyHCtx
	}
	// The heap context is the most significant part of the allocating
	// method's calling context, as in the paper's 1-call example
	// (RECORD(heap, ctx) = ctx) generalized to depth HeapK.
	return HCtx(p.tab.Prefix(ctx, p.spec.HeapK))
}

func (p *basePolicy) Merge(heap ir.HeapID, hctx HCtx, invo ir.InvoID, toMeth ir.MethodID, callerCtx Ctx) Ctx {
	switch p.spec.Flavor {
	case CallSite:
		return p.tab.Cons(elemInvo(int32(invo)), callerCtx, p.spec.K)
	case Object, Hybrid:
		return p.tab.Cons(elemHeap(int32(heap)), Ctx(hctx), p.spec.K)
	case TypeSens:
		return p.tab.Cons(p.heapClass[heap], Ctx(hctx), p.spec.K)
	default:
		return EmptyCtx
	}
}

func (p *basePolicy) MergeStatic(invo ir.InvoID, toMeth ir.MethodID, callerCtx Ctx) Ctx {
	switch p.spec.Flavor {
	case CallSite, Hybrid:
		return p.tab.Cons(elemInvo(int32(invo)), callerCtx, p.spec.K)
	case Insensitive, CutShortcut:
		return EmptyCtx
	default:
		return callerCtx
	}
}

// Refinement is the paper's SITETOREFINE/OBJECTTOREFINE input relations,
// stored in complement form (the paper notes the complements are the
// efficient representation): the elements listed here are *excluded*
// from refinement and analyzed with the cheap context.
type Refinement struct {
	// Heaps excluded from refinement (OBJECTTOREFINE complement).
	Heaps bits.Set
	// Invos excluded from refinement: any call at these sites uses the
	// cheap context (SITETOREFINE complement, call-site part).
	Invos bits.Set
	// Methods excluded from refinement: any call targeting these methods
	// uses the cheap context (SITETOREFINE complement, method part).
	Methods bits.Set
}

// ExcludesCall reports whether a call at invo targeting meth is excluded
// from refinement.
func (r *Refinement) ExcludesCall(invo ir.InvoID, meth ir.MethodID) bool {
	return r.Invos.Has(int32(invo)) || r.Methods.Has(int32(meth))
}

// ExcludesHeap reports whether allocation site h is excluded from
// refinement.
func (r *Refinement) ExcludesHeap(h ir.HeapID) bool {
	return r.Heaps.Has(int32(h))
}

// introspective dispatches per program element between a deep and a
// cheap policy: the duplicated constructor rules of the paper's Figure 3
// collapsed into one Policy.
type introspective struct {
	deep, cheap Policy
	ref         *Refinement
	name        string
}

// NewIntrospective builds the introspective policy: program elements in
// ref (the refinement-excluded sets) are analyzed with cheap; all other
// elements with deep. Pass name for display (e.g. "2objH-IntroA").
func NewIntrospective(deep, cheap Policy, ref *Refinement, name string) Policy {
	if name == "" {
		name = deep.Name() + "-intro"
	}
	return &introspective{deep: deep, cheap: cheap, ref: ref, name: name}
}

func (p *introspective) Name() string { return p.name }

func (p *introspective) Record(heap ir.HeapID, ctx Ctx) HCtx {
	if p.ref.ExcludesHeap(heap) {
		return p.cheap.Record(heap, ctx)
	}
	return p.deep.Record(heap, ctx)
}

func (p *introspective) Merge(heap ir.HeapID, hctx HCtx, invo ir.InvoID, toMeth ir.MethodID, callerCtx Ctx) Ctx {
	if p.ref.ExcludesCall(invo, toMeth) {
		return p.cheap.Merge(heap, hctx, invo, toMeth, callerCtx)
	}
	return p.deep.Merge(heap, hctx, invo, toMeth, callerCtx)
}

func (p *introspective) MergeStatic(invo ir.InvoID, toMeth ir.MethodID, callerCtx Ctx) Ctx {
	if p.ref.ExcludesCall(invo, toMeth) {
		return p.cheap.MergeStatic(invo, toMeth, callerCtx)
	}
	return p.deep.MergeStatic(invo, toMeth, callerCtx)
}
