// Package taint implements a P/Taint-style unified taint analysis
// (Grech & Smaragdakis, OOPSLA 2017) as a pure client of the points-to
// solver: taint facts are encoded as synthetic abstract objects, so the
// unmodified solver propagates them — under every registered context
// policy — exactly as it propagates real heap objects.
//
// The encoding has three parts:
//
//   - Sources. Each configured source method gets one synthetic
//     allocation "ret = new taint$" appended to its body. The allocated
//     class, taint$, is a hierarchy root that does NOT extend Object,
//     so no cast in the analyzed program can manufacture it; the only
//     way a variable comes to point at a taint object is value flow
//     from a source's return.
//
//   - Sinks. No program change at all: a sink report is simply "some
//     argument of a call that may dispatch to a sink method may point
//     to a taint object", read off Result.VarHeaps/InvoTargets after
//     the solve.
//
//   - Sanitizers. The sanitizer's return is rerouted through a cast to
//     Object: "retClean = (Object) ret". Every real class a Builder
//     creates is a subtype of Object, so real objects pass the filter
//     unchanged, while taint objects — whose class is its own root —
//     are dropped. Callers observe retClean.
//
// Because taint objects are ordinary heap objects to the solver, taint
// flow inherits the precision of whatever context abstraction runs:
// a context-insensitive analysis conflates the contents of all
// containers and reports false source→sink flows; 2objH keeps
// receiver-distinguished containers apart; the introspective variants
// fall in between, per their refinement sets. That per-policy spread is
// the point: it prices context-sensitivity in a security client where
// false positives have real cost (Figure 9).
//
// Known encoding limit, documented rather than patched: taint objects
// do not survive casts to any program type (taint$ is a subtype of
// nothing), so a flow routed through "(C) x" in the analyzed program is
// dropped under every policy alike. The refinement property — a more
// precise policy's reports are a subset of a less precise one's — is
// unaffected, because the drop is policy-independent.
package taint

import (
	"fmt"
	"slices"
	"strings"

	"introspect/internal/ir"
)

// TaintClass is the name of the synthetic hierarchy-root class whose
// allocation sites carry taint facts. Programs must not define a type
// of this name; the injector rejects subjects that do.
const TaintClass = "taint$"

// Spec configures a taint analysis: which methods produce tainted
// values, which consume them, and which cleanse them. Patterns match a
// method if they equal its qualified name ("Api.fetch"), its dispatch
// signature ("fetch/0"), or its bare name ("fetch"). A Spec rides in
// analysis.Job, so it is part of the canonical cache key.
type Spec struct {
	// Sources are methods whose return value is tainted.
	Sources []string `json:"sources"`
	// Sinks are methods whose arguments must not be tainted.
	Sinks []string `json:"sinks"`
	// Sanitizers are methods whose return value is clean even when
	// their input was tainted.
	Sanitizers []string `json:"sanitizers,omitempty"`
}

// Validate checks the spec in isolation (no program needed): sources
// and sinks must be non-empty, patterns must be non-blank and unique
// within their list, and no pattern may be both a source and a
// sanitizer (one method cannot produce and cleanse taint at once).
func (s *Spec) Validate() error {
	if len(s.Sources) == 0 {
		return fmt.Errorf("taint: spec has no sources")
	}
	if len(s.Sinks) == 0 {
		return fmt.Errorf("taint: spec has no sinks")
	}
	check := func(kind string, pats []string) error {
		seen := make(map[string]bool, len(pats))
		for _, p := range pats {
			if strings.TrimSpace(p) == "" {
				return fmt.Errorf("taint: blank %s pattern", kind)
			}
			if seen[p] {
				return fmt.Errorf("taint: duplicate %s pattern %q", kind, p)
			}
			seen[p] = true
		}
		return nil
	}
	if err := check("source", s.Sources); err != nil {
		return err
	}
	if err := check("sink", s.Sinks); err != nil {
		return err
	}
	if err := check("sanitizer", s.Sanitizers); err != nil {
		return err
	}
	for _, p := range s.Sources {
		for _, q := range s.Sanitizers {
			if p == q {
				return fmt.Errorf("taint: pattern %q is both a source and a sanitizer", p)
			}
		}
	}
	return nil
}

// Clone returns a deep copy, for Job copying.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	return &Spec{
		Sources:    append([]string(nil), s.Sources...),
		Sinks:      append([]string(nil), s.Sinks...),
		Sanitizers: append([]string(nil), s.Sanitizers...),
	}
}

// SpecFromLists builds a Spec from three comma-separated pattern
// lists, the form the command-line flags and pta/v1's query parameters
// take. Each element is trimmed of whitespace and empty elements are
// dropped; when no list has an element left there is no taint job, and
// the result is nil. A non-nil result still needs Validate.
func SpecFromLists(sources, sinks, sanitizers string) *Spec {
	src, snk, san := splitList(sources), splitList(sinks), splitList(sanitizers)
	if len(src) == 0 && len(snk) == 0 && len(san) == 0 {
		return nil
	}
	return &Spec{Sources: src, Sinks: snk, Sanitizers: san}
}

// splitList splits a comma-separated list, trimming whitespace and
// dropping empty elements.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// matches reports whether pattern pat selects method m: qualified name,
// signature string, or bare name.
func matches(prog *ir.Program, m ir.MethodID, pat string) bool {
	mm := &prog.Methods[m]
	if pat == mm.Name {
		return true
	}
	if mm.Sig != ir.None && pat == prog.SigName(mm.Sig) {
		return true
	}
	if i := strings.LastIndexByte(mm.Name, '.'); i >= 0 && pat == mm.Name[i+1:] {
		return true
	}
	return false
}

// Injection describes one taint-injected program: the synthetic class,
// the matched method sets, and the synthetic heaps, keyed for O(1)
// post-solve queries. It refers to identifiers of the *injected*
// program returned by Inject (which are also valid base-program ids
// for everything but the synthetic additions).
type Injection struct {
	// Spec is the configuration the injection was built from.
	Spec *Spec
	// TaintType is the synthetic root class carrying taint.
	TaintType ir.TypeID
	// Sources, Sinks, Sanitizers are the matched methods, in id order.
	Sources, Sinks, Sanitizers []ir.MethodID

	sourceOf map[ir.HeapID]ir.MethodID
	sinks    map[ir.MethodID]bool
}

// IsTaintHeap reports whether h is a synthetic taint object.
func (inj *Injection) IsTaintHeap(h ir.HeapID) bool {
	_, ok := inj.sourceOf[h]
	return ok
}

// SourceOf returns the source method whose injection created taint
// heap h.
func (inj *Injection) SourceOf(h ir.HeapID) (ir.MethodID, bool) {
	m, ok := inj.sourceOf[h]
	return m, ok
}

// IsSink reports whether m is a matched sink method.
func (inj *Injection) IsSink(m ir.MethodID) bool { return inj.sinks[m] }

// Inject derives a taint-instrumented copy of prog per spec: a taint
// allocation into each source's return, a cleansing cast around each
// sanitizer's return. prog itself is not modified. Methods matched by
// spec but unable to play the role (a void source, a void sanitizer)
// are skipped — they can still act as sinks. A method matched as both
// source and sink, or sink and sanitizer, is an error (the overlap is
// always a spec typo); so is a program that already defines TaintClass.
func Inject(prog *ir.Program, spec *Spec) (*ir.Program, *Injection, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	inj := &Injection{
		Spec:     spec,
		sourceOf: make(map[ir.HeapID]ir.MethodID),
		sinks:    make(map[ir.MethodID]bool),
	}
	// match returns the methods some pattern selects, in id order.
	match := func(pats []string) []ir.MethodID {
		var out []ir.MethodID
		for m := ir.MethodID(0); int(m) < prog.NumMethods(); m++ {
			if slices.ContainsFunc(pats, func(pat string) bool { return matches(prog, m, pat) }) {
				out = append(out, m)
			}
		}
		return out
	}
	inj.Sources = match(spec.Sources)
	inj.Sinks = match(spec.Sinks)
	inj.Sanitizers = match(spec.Sanitizers)
	for _, m := range inj.Sinks {
		inj.sinks[m] = true
	}
	// Roles are checked in id order, so a spec with several conflicts
	// always names the same one.
	for _, m := range inj.Sources {
		if inj.sinks[m] {
			return nil, nil, fmt.Errorf("taint: method %s matched as both source and sink", prog.MethodName(m))
		}
		if _, ok := slices.BinarySearch(inj.Sanitizers, m); ok {
			return nil, nil, fmt.Errorf("taint: method %s matched as both source and sanitizer", prog.MethodName(m))
		}
	}
	for _, m := range inj.Sanitizers {
		if inj.sinks[m] {
			return nil, nil, fmt.Errorf("taint: method %s matched as both sink and sanitizer", prog.MethodName(m))
		}
	}
	b := prog.Extend()
	if b.TypeByName(TaintClass) != ir.None {
		return nil, nil, fmt.Errorf("taint: program %q already defines %s", prog.Name, TaintClass)
	}
	inj.TaintType = b.AddRootClass(TaintClass)
	for _, m := range inj.Sources {
		ret := prog.Methods[m].Ret
		if ret == ir.None {
			continue // a void source produces no value to taint
		}
		h := b.Method(m).Alloc(ret, inj.TaintType, TaintClass+"@"+prog.MethodName(m))
		inj.sourceOf[h] = m
	}
	for _, m := range inj.Sanitizers {
		ret := prog.Methods[m].Ret
		if ret == ir.None {
			continue
		}
		mb := b.Method(m)
		clean := mb.NewVar("ret$clean", ir.None)
		mb.Cast(clean, ret, prog.ObjectType)
		mb.SetRet(clean)
	}
	p2, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return p2, inj, nil
}
