package introspect

import (
	"strings"

	"introspect/internal/ir"
	"introspect/internal/pta"
)

// SyntacticOptions selects the hard-coded exclusion heuristics that
// points-to frameworks traditionally apply (the paper's Section 5:
// "allocating strings or exceptions context-insensitively", etc.).
// They exclude elements by *syntactic* features of the program — no
// first analysis pass required.
//
// The paper's argument, which internal/figures reproduces as an
// experiment, is that such heuristics do NOT address the scalability
// pathologies: "the scalability issues ... are present after all such
// heuristics have been employed". Introspection's insight is that the
// pathological elements cannot be recognized syntactically; they must
// be observed in a cheap analysis first.
type SyntacticOptions struct {
	// ExcludeTypeSubstrings excludes allocation sites whose allocated
	// type name contains any of these substrings (e.g. "String",
	// "Error", "Exception").
	ExcludeTypeSubstrings []string
	// ExcludeMethodSubstrings excludes call sites inside methods whose
	// name contains any of these substrings.
	ExcludeMethodSubstrings []string
}

// DefaultSyntactic mirrors the classic framework defaults: strings and
// exception-like objects analyzed context-insensitively.
func DefaultSyntactic() SyntacticOptions {
	return SyntacticOptions{
		ExcludeTypeSubstrings: []string{"String", "Error", "Exception"},
	}
}

// SyntacticExclusions computes a Refinement from syntactic features
// alone. It plugs into the same introspective machinery
// (pta.NewIntrospective), making the traditional heuristics and the
// paper's introspective ones directly comparable.
func SyntacticExclusions(prog *ir.Program, opts SyntacticOptions) *pta.Refinement {
	ref := &pta.Refinement{}
	matches := func(name string, subs []string) bool {
		for _, s := range subs {
			if strings.Contains(name, s) {
				return true
			}
		}
		return false
	}
	for h := 0; h < prog.NumHeaps(); h++ {
		t := prog.HeapType(ir.HeapID(h))
		if matches(prog.TypeName(t), opts.ExcludeTypeSubstrings) {
			ref.Heaps.Add(int32(h))
		}
	}
	if len(opts.ExcludeMethodSubstrings) > 0 {
		for mi := range prog.Methods {
			if matches(prog.Methods[mi].Name, opts.ExcludeMethodSubstrings) {
				ref.Methods.Add(int32(mi))
			}
		}
	}
	return ref
}

// Running a deep analysis with only these exclusions applied — the
// baseline the paper's related-work section describes — is an
// analysis-layer pipeline: analysis.Run with Job.Syntactic set
// (spec suffix "-syntactic").
