package pta

import (
	"introspect/internal/ir"
)

// StoreEdit is one cut argument→formal link, compensated per receiver:
// the actual argument is stored straight into the receiver object's
// field at every dispatch of the method (the cut-shortcut treatment of
// a setter). Cutting the formal prevents the solver from merging every
// caller's argument into one context-insensitive formal and then
// smearing the merged set over every receiver.
type StoreEdit struct {
	// Arg is the formal index whose incoming argument edge is cut.
	Arg int32
	// Field is the receiver field the shortcut writes.
	Field ir.FieldID
}

// MethodEdit is the edit set for one method. The cut half removes
// imprecision-introducing interprocedural edges; the shortcut half
// restores the exact value flow those edges carried, so an edit is
// sound by construction: every cut is compensated at every call edge.
type MethodEdit struct {
	// CutReturn cuts the return→result link at every call edge of the
	// method. It is only set when the detector proved the returned
	// value's sources are exhaustively described by RetFormals, RetThis
	// and RetFields.
	CutReturn bool
	// RetFormals lists formal indices whose argument flows to the
	// return value: the shortcut wires the actual argument straight to
	// the call's result (a returned-parameter flow).
	RetFormals []int32
	// RetThis marks a method returning its receiver: the shortcut binds
	// the dispatched receiver object to the call's result.
	RetThis bool
	// RetFields lists receiver fields the return value is loaded from
	// (a getter): the shortcut wires the receiver object's field node
	// to the call's result at each dispatch.
	RetFields []ir.FieldID
	// Stores are the method's setter cuts.
	Stores []StoreEdit
}

// cutsArg reports whether the argument→formal edge for formal index i
// is cut.
func (e *MethodEdit) cutsArg(i int) bool {
	for _, st := range e.Stores {
		if int(st.Arg) == i {
			return true
		}
	}
	return false
}

// Edits is a pre-solve constraint-graph edit set: per-method cut and
// shortcut edges the solver consults while linking calls. The zero
// value (or nil) edits nothing.
//
// A solve runs under a context Policy and an edit set (Solve takes
// both). The split follows the two families of context-sensitivity
// research the reproduction covers: the paper's introspective
// heuristics vary *which contexts* are built (Policy), while the
// cut-shortcut approach (Ma et al., "Context Sensitivity without
// Contexts") varies *which flow edges* the constraint graph contains.
// An edit set may touch the interprocedural value-flow edges of edited
// methods: argument/return links at call edges, compensated by
// shortcut edges. It may not touch intra-method constraints, exception
// plumbing, this-binding, dispatch resolution, or the work accounting
// of unedited methods. A nil edit set costs one nil check per call
// edge and changes no work count.
type Edits struct {
	perMethod []*MethodEdit
	methods   int // methods with a non-empty edit
	cuts      int // cut edges (return links + argument links)
	shortcuts int // shortcut kinds installed (per method, not per call edge)
}

// NewEdits returns an empty edit set for a program with numMethods
// methods.
func NewEdits(numMethods int) *Edits {
	return &Edits{perMethod: make([]*MethodEdit, numMethods)}
}

// Set installs the edit for method m, replacing any previous one.
func (e *Edits) Set(m ir.MethodID, ed MethodEdit) {
	if e.perMethod[m] == nil {
		e.methods++
	}
	e.perMethod[m] = &ed
	if ed.CutReturn {
		e.cuts++
	}
	e.cuts += len(ed.Stores)
	e.shortcuts += len(ed.RetFormals) + len(ed.RetFields) + len(ed.Stores)
	if ed.RetThis {
		e.shortcuts++
	}
}

// ForMethod returns the edit for method m, or nil. Safe on a nil
// receiver.
func (e *Edits) ForMethod(m ir.MethodID) *MethodEdit {
	if e == nil || int(m) >= len(e.perMethod) {
		return nil
	}
	return e.perMethod[m]
}

// Methods returns the number of methods carrying an edit.
func (e *Edits) Methods() int {
	if e == nil {
		return 0
	}
	return e.methods
}

// Cuts returns the number of cut interprocedural links.
func (e *Edits) Cuts() int {
	if e == nil {
		return 0
	}
	return e.cuts
}

// Shortcuts returns the number of shortcut rules installed.
func (e *Edits) Shortcuts() int {
	if e == nil {
		return 0
	}
	return e.shortcuts
}
