// Package cutshortcut implements the cut-shortcut approach to precise
// points-to analysis (Ma et al., "Context Sensitivity without
// Contexts: A Cut-Shortcut Approach", PLDI 2023) over the
// reproduction's IR.
//
// Where the source paper's introspective heuristics tame a
// context-sensitive analysis by selectively *disabling* context, the
// cut-shortcut idea abandons contexts entirely: the imprecision of a
// context-insensitive analysis enters through a small set of flow
// edges at method boundaries — a setter's formal merging every
// caller's argument before it is stored into every receiver, a
// getter's return merging every receiver's field before it reaches any
// caller — and those edges can be cut, provided an equivalent direct
// ("shortcut") edge is installed at each call site to carry the exact
// flow the cut edge carried. Precision then comes from the call site's
// receiver and argument variables instead of from cloned contexts, at
// the propagation cost of an insensitive analysis.
//
// The package lives outside internal/pta: Detect produces a pta.Edits
// value, and the analysis layer passes it to pta.Solve beside the "cs"
// policy, which builds no contexts. pta never imports this package.
//
// # Patterns
//
// Detect performs one linear pass over each method body and recognizes
// four flow shapes, each justifying one cut:
//
//   - returned formal: the return value's only sources are formal
//     parameters (through Move chains). Cut the return link; shortcut
//     each actual argument straight to the call's result.
//   - returns this: the return value's only source is the receiver.
//     Cut the return link; shortcut the dispatched receiver object to
//     the call's result.
//   - getter: the return value is loaded from a field of the receiver.
//     Cut the return link; shortcut the receiver object's field node
//     to the call's result at each dispatch.
//   - setter: a formal parameter's only use is a store into a field of
//     the receiver. Cut the argument link; shortcut each actual
//     argument into the dispatched receiver object's field node.
//
// The three return shapes may coexist in one method (e.g. a getter
// with a fluent `return this` overload); the return link is cut only
// when *every* source of the return value is one of the recognized
// roots. Any other defining instruction in the return value's Move
// closure — an allocation, a call result, a cast, a load off a
// non-receiver base, a static load, a caught exception, or the
// method's exception variable — vetoes the cut, so every cut is fully
// compensated and the analysis stays sound: its results are a
// pointwise subset of the insensitive analysis's (see the refinement
// property test).
package cutshortcut

import (
	"sort"

	"introspect/internal/ir"
	"introspect/internal/pta"
)

// Detect runs the pattern-detection pass over every method of prog and
// returns the resulting edit set. Detection is a pure function of the
// program: deterministic, and linear in program size.
func Detect(prog *ir.Program) *pta.Edits {
	edits := pta.NewEdits(len(prog.Methods))
	for mi := range prog.Methods {
		if ed, ok := detectMethod(&prog.Methods[mi]); ok {
			edits.Set(ir.MethodID(mi), ed)
		}
	}
	return edits
}

// varInfo is the per-variable summary detectMethod builds in its
// single scan of a method body.
type varInfo struct {
	// moveSrcs are the sources of Move instructions targeting the
	// variable — the only defs the return closure follows.
	moveSrcs []ir.VarID
	// thisFields are fields loaded off the receiver into the variable;
	// such a def is an acceptable return-closure root (getter).
	thisFields []ir.FieldID
	// badDef marks a def the patterns cannot compensate for: Alloc,
	// Cast, call result, Load off a non-receiver base, SLoad, Catch.
	badDef bool
	// uses counts every read of the variable (as a move/store/sstore
	// source, load/store/call base, call argument, throw operand).
	uses int
	// defs counts every write, including moves and this-loads.
	defs int
}

// detectMethod computes the edit for one method, reporting ok=false
// when no pattern applies.
func detectMethod(m *ir.Method) (pta.MethodEdit, bool) {
	info := scan(m)

	var ed pta.MethodEdit

	// Setter cuts: a store of a formal into a receiver field, where
	// that store is the formal's only appearance in the body. The
	// use/def counts are what make the cut exact: the argument cannot
	// flow anywhere but into the shortcut's target field.
	if m.This != ir.None {
		for _, st := range m.Stores {
			if st.Base != m.This || st.From == m.This {
				continue
			}
			fi := formalIndex(m, st.From)
			if fi < 0 {
				continue
			}
			vi := info[st.From]
			if vi == nil || vi.uses != 1 || vi.defs != 0 {
				continue
			}
			ed.Stores = append(ed.Stores, pta.StoreEdit{Arg: int32(fi), Field: st.Field})
		}
	}

	// Return cut: walk the Move closure of the return value and
	// classify every source. The cut happens only if each closure
	// variable's defs are exhaustively recognized roots.
	if m.Ret != ir.None {
		closure := map[ir.VarID]bool{m.Ret: true}
		work := []ir.VarID{m.Ret}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			if vi := info[v]; vi != nil {
				for _, src := range vi.moveSrcs {
					if !closure[src] {
						closure[src] = true
						work = append(work, src)
					}
				}
			}
		}

		ok := true
		formals := map[int32]bool{}
		fields := map[ir.FieldID]bool{}
		retThis := false
		//introvet:allow order-independent: the loop only accumulates flags and sets; the sets are sorted below
		for v := range closure {
			if v == m.Exc {
				// The exception variable also receives callee-escape
				// edges the closure does not see; never cut through it.
				ok = false
				break
			}
			if v == m.This {
				retThis = true
			}
			if fi := formalIndex(m, v); fi >= 0 {
				formals[int32(fi)] = true
			}
			vi := info[v]
			if vi == nil {
				continue
			}
			if vi.badDef {
				ok = false
				break
			}
			for _, f := range vi.thisFields {
				fields[f] = true
			}
		}
		if ok && (retThis || len(formals) > 0 || len(fields) > 0) {
			ed.CutReturn = true
			ed.RetThis = retThis
			for fi := range formals { //introvet:allow sorted immediately below
				ed.RetFormals = append(ed.RetFormals, fi)
			}
			sort.Slice(ed.RetFormals, func(i, j int) bool { return ed.RetFormals[i] < ed.RetFormals[j] })
			for f := range fields { //introvet:allow sorted immediately below
				ed.RetFields = append(ed.RetFields, f)
			}
			sort.Slice(ed.RetFields, func(i, j int) bool { return ed.RetFields[i] < ed.RetFields[j] })
		}
	}

	return ed, ed.CutReturn || len(ed.Stores) > 0
}

// scan builds the per-variable def/use summary of a method body.
func scan(m *ir.Method) map[ir.VarID]*varInfo {
	info := map[ir.VarID]*varInfo{}
	at := func(v ir.VarID) *varInfo {
		vi := info[v]
		if vi == nil {
			vi = &varInfo{}
			info[v] = vi
		}
		return vi
	}
	use := func(v ir.VarID) {
		if v != ir.None {
			at(v).uses++
		}
	}
	badDef := func(v ir.VarID) {
		if v != ir.None {
			vi := at(v)
			vi.badDef = true
			vi.defs++
		}
	}

	for _, a := range m.Allocs {
		badDef(a.Var)
	}
	for _, mv := range m.Moves {
		vi := at(mv.To)
		vi.moveSrcs = append(vi.moveSrcs, mv.From)
		vi.defs++
		use(mv.From)
	}
	for _, c := range m.Casts {
		// A cast filters by type; the shortcut edges are unfiltered, so
		// a cast in the return closure vetoes the cut.
		badDef(c.To)
		use(c.From)
	}
	for _, l := range m.Loads {
		if m.This != ir.None && l.Base == m.This {
			vi := at(l.To)
			vi.thisFields = append(vi.thisFields, l.Field)
			vi.defs++
		} else {
			badDef(l.To)
		}
		use(l.Base)
	}
	for _, st := range m.Stores {
		use(st.Base)
		use(st.From)
	}
	for _, l := range m.SLoads {
		badDef(l.To)
	}
	for _, st := range m.SStores {
		use(st.From)
	}
	for _, th := range m.Throws {
		use(th.From)
	}
	for _, ca := range m.Catches {
		badDef(ca.Var)
	}
	for ci := range m.Calls {
		c := &m.Calls[ci]
		use(c.Base)
		for _, a := range c.Args {
			use(a)
		}
		badDef(c.Ret)
	}
	return info
}

// formalIndex returns v's index in m.Formals, or -1.
func formalIndex(m *ir.Method, v ir.VarID) int {
	for i, f := range m.Formals {
		if f == v {
			return i
		}
	}
	return -1
}
