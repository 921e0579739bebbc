// Package ir defines the intermediate representation analyzed by the
// points-to analyses in this repository.
//
// The representation follows the input language of the paper
// "Introspective Analysis: Context-Sensitivity, Across the Board"
// (PLDI 2014): a flow-insensitive, three-address language with
//
//   - Alloc   var = new T          (allocation site)
//   - Move    to = from            (local copy)
//   - Load    to = base.fld        (heap read)
//   - Store   base.fld = from      (heap write)
//   - VCall   base.sig(args...)    (virtual dispatch on the receiver)
//
// plus the additional instructions any realistic subject needs and that
// the full Doop implementation also models: direct (static or
// constructor) calls, reference casts, and static-field loads/stores.
// Arrays are modeled field-insensitively through the distinguished
// element field (Program.ArrayElem), mirroring Doop's treatment.
//
// All program entities are interned into dense integer identifiers so
// that analyses can use them as array indices and bitset elements.
package ir

import "fmt"

// Identifier types. All are dense, zero-based indices into the tables of
// a Program. The value -1 (None) means "absent" (e.g. a call with no
// return-value receiver).
type (
	// VarID identifies a local variable (including formals, this, and
	// compiler temporaries) of some method.
	VarID int32
	// HeapID identifies an allocation site.
	HeapID int32
	// MethodID identifies a method definition.
	MethodID int32
	// FieldID identifies an instance field.
	FieldID int32
	// TypeID identifies a class or interface type.
	TypeID int32
	// SigID identifies a method signature (name + arity); virtual
	// dispatch resolves a SigID against the dynamic type of the receiver.
	SigID int32
	// InvoID identifies a method invocation site.
	InvoID int32
)

// None is the absent value for every identifier type.
const None = -1

// TypeKind distinguishes classes from interfaces.
type TypeKind uint8

const (
	// ClassKind is a concrete or abstract class.
	ClassKind TypeKind = iota
	// InterfaceKind is an interface type.
	InterfaceKind
)

// Type is a class or interface.
type Type struct {
	Name       string
	Kind       TypeKind
	Super      TypeID   // superclass, None for the root or interfaces
	Interfaces []TypeID // directly implemented/extended interfaces
	Abstract   bool     // abstract classes are never instantiated

	// computed by Finish:
	ancestors map[TypeID]bool    // all supertypes, including self
	dispatch  map[SigID]MethodID // signature -> concrete method
}

// Var is a local variable of a method.
type Var struct {
	Name   string
	Method MethodID // declaring method
	Type   TypeID   // static type, None for untyped temporaries
}

// Heap is an allocation site.
type Heap struct {
	Name   string
	Type   TypeID   // the allocated (dynamic) type
	Method MethodID // the method containing the allocation
}

// Field is an instance field.
type Field struct {
	Name  string
	Owner TypeID // declaring type; None for the array element pseudo-field
}

// Method is a method definition.
type Method struct {
	Name    string
	Sig     SigID  // dispatch signature
	Owner   TypeID // declaring type
	Static  bool
	This    VarID   // receiver variable; None for static methods
	Formals []VarID // formal parameters, excluding this
	Ret     VarID   // variable holding the return value; None for void
	// Exc holds the exceptions escaping this method; it is created for
	// every method and propagates to callers' catch clauses and Exc.
	Exc VarID

	// Instruction lists (flow-insensitive, so order is irrelevant).
	Allocs  []Alloc
	Moves   []Move
	Loads   []Load
	Stores  []Store
	Calls   []Call
	Casts   []Cast
	SLoads  []SLoad
	SStores []SStore
	Throws  []Throw
	Catches []Catch
}

// Alloc is "var = new T" where the heap object carries T.
type Alloc struct {
	Var  VarID
	Heap HeapID
}

// Move is "to = from".
type Move struct {
	To, From VarID
}

// Load is "to = base.fld".
type Load struct {
	To, Base VarID
	Field    FieldID
}

// Store is "base.fld = from".
type Store struct {
	Base  VarID
	Field FieldID
	From  VarID
}

// CallKind distinguishes virtual dispatch from direct calls.
type CallKind uint8

const (
	// Virtual calls resolve the target by the dynamic type of Base.
	Virtual CallKind = iota
	// Direct calls (static methods, constructors) have a fixed Target.
	Direct
)

// Call is a method invocation site.
type Call struct {
	Kind   CallKind
	Invo   InvoID
	Base   VarID    // receiver; None for static Direct calls
	Sig    SigID    // dispatch signature (Virtual only)
	Target MethodID // fixed callee (Direct only)
	Args   []VarID  // actual arguments, excluding the receiver
	Ret    VarID    // receiver of the return value; None if discarded
}

// Cast is "to = (T) from".
type Cast struct {
	To, From VarID
	Type     TypeID
}

// SLoad is "to = T.sfield" (static-field read).
type SLoad struct {
	To    VarID
	Field FieldID
}

// SStore is "T.sfield = from" (static-field write).
type SStore struct {
	Field FieldID
	From  VarID
}

// Throw is "throw from": the thrown object escapes the method (into
// Method.Exc) and flows to type-matching Catch clauses.
type Throw struct {
	From VarID
}

// Catch is a "catch (T var)" clause. The exception model is
// flow-insensitive, like everything else here: a catch clause observes
// every exception thrown in its method and every exception escaping
// any callee, filtered by its type. Caught exceptions conservatively
// still escape (no subtraction) — the sound coarse model Doop's
// exception analyses refine.
type Catch struct {
	Var  VarID
	Type TypeID
}

// Invo describes an invocation site shared by the Call instruction and
// the analyses (which key interprocedural flow on InvoID).
type Invo struct {
	Name   string
	Method MethodID // containing method
}

// Program is a complete, frozen analysis subject. Build one with a
// Builder; a Program returned by Builder.Finish is immutable and
// validated. To change one, Extend it and finish the copy.
type Program struct {
	Name    string
	Types   []Type
	Vars    []Var
	Heaps   []Heap
	Fields  []Field
	Methods []Method
	Sigs    []string
	Invos   []Invo

	// Entries are the initially reachable methods (e.g. main).
	Entries []MethodID

	// ArrayElem is the distinguished pseudo-field standing for the
	// contents of every array, or None if the program has no arrays.
	ArrayElem FieldID

	// ObjectType is the root class every class ultimately extends.
	ObjectType TypeID
}

// NumVars returns the number of local variables.
func (p *Program) NumVars() int { return len(p.Vars) }

// NumHeaps returns the number of allocation sites.
func (p *Program) NumHeaps() int { return len(p.Heaps) }

// NumMethods returns the number of method definitions.
func (p *Program) NumMethods() int { return len(p.Methods) }

// NumInvos returns the number of invocation sites.
func (p *Program) NumInvos() int { return len(p.Invos) }

// NumFields returns the number of fields (including the array pseudo-field).
func (p *Program) NumFields() int { return len(p.Fields) }

// NumTypes returns the number of class and interface types.
func (p *Program) NumTypes() int { return len(p.Types) }

// SubtypeOf reports whether sub is a (reflexive, transitive) subtype of
// super, following superclass and interface edges.
func (p *Program) SubtypeOf(sub, super TypeID) bool {
	if sub == super {
		return true
	}
	if sub < 0 || int(sub) >= len(p.Types) {
		return false
	}
	return p.Types[sub].ancestors[super]
}

// Lookup resolves signature sig against dynamic type t, returning the
// concrete method that a virtual call dispatches to, or None if the
// hierarchy provides no implementation.
func (p *Program) Lookup(t TypeID, sig SigID) MethodID {
	if t < 0 || int(t) >= len(p.Types) {
		return None
	}
	if m, ok := p.Types[t].dispatch[sig]; ok {
		return m
	}
	return None
}

// HeapType returns the dynamic type of an allocation site.
func (p *Program) HeapType(h HeapID) TypeID { return p.Heaps[h].Type }

// VarsOf returns the local variables of method m (formals, this, return,
// and temporaries), in id order.
func (p *Program) VarsOf(m MethodID) []VarID {
	var out []VarID
	for v := range p.Vars {
		if p.Vars[v].Method == m {
			out = append(out, VarID(v))
		}
	}
	return out
}

// SigName returns the textual form of a signature.
func (p *Program) SigName(s SigID) string { return p.Sigs[s] }

// VarName returns a readable "Method.var" name for diagnostics.
func (p *Program) VarName(v VarID) string {
	vv := p.Vars[v]
	return p.Methods[vv.Method].Name + "." + vv.Name
}

// HeapName returns a readable name for an allocation site.
func (p *Program) HeapName(h HeapID) string { return p.Heaps[h].Name }

// MethodName returns the (qualified) name of a method.
func (p *Program) MethodName(m MethodID) string { return p.Methods[m].Name }

// TypeName returns the name of a type.
func (p *Program) TypeName(t TypeID) string {
	if t == None {
		return "<none>"
	}
	return p.Types[t].Name
}

// InvoName returns a readable name for an invocation site.
func (p *Program) InvoName(i InvoID) string { return p.Invos[i].Name }

// Validate checks internal consistency and returns the first problem
// found, or nil. Builder.Finish runs it automatically; it is exported so
// that deserialized or hand-built programs can be checked too.
func (p *Program) Validate() error {
	// checkVar names the instruction by where, a format of the method
	// name, and builds the message only for a var out of range, so a
	// valid program allocates nothing here.
	checkVar := func(v VarID, where, method string) error {
		if v < 0 || int(v) >= len(p.Vars) {
			return fmt.Errorf("ir: %s references invalid var %d", fmt.Sprintf(where, method), v)
		}
		return nil
	}
	for mi := range p.Methods {
		m := &p.Methods[mi]
		if m.Owner < 0 || int(m.Owner) >= len(p.Types) {
			return fmt.Errorf("ir: method %s has invalid owner", m.Name)
		}
		if !m.Static {
			if err := checkVar(m.This, "method %s this", m.Name); err != nil {
				return err
			}
		}
		for _, a := range m.Allocs {
			if err := checkVar(a.Var, "alloc in %s", m.Name); err != nil {
				return err
			}
			if a.Heap < 0 || int(a.Heap) >= len(p.Heaps) {
				return fmt.Errorf("ir: alloc in %s references invalid heap", m.Name)
			}
			if p.Heaps[a.Heap].Method != MethodID(mi) {
				return fmt.Errorf("ir: heap %s not owned by method %s", p.Heaps[a.Heap].Name, m.Name)
			}
		}
		for _, mv := range m.Moves {
			if err := checkVar(mv.To, "move in %s", m.Name); err != nil {
				return err
			}
			if err := checkVar(mv.From, "move in %s", m.Name); err != nil {
				return err
			}
		}
		for _, l := range m.Loads {
			if err := checkVar(l.To, "load in %s", m.Name); err != nil {
				return err
			}
			if err := checkVar(l.Base, "load in %s", m.Name); err != nil {
				return err
			}
			if l.Field < 0 || int(l.Field) >= len(p.Fields) {
				return fmt.Errorf("ir: load in %s references invalid field", m.Name)
			}
		}
		for _, s := range m.Stores {
			if err := checkVar(s.Base, "store in %s", m.Name); err != nil {
				return err
			}
			if err := checkVar(s.From, "store in %s", m.Name); err != nil {
				return err
			}
			if s.Field < 0 || int(s.Field) >= len(p.Fields) {
				return fmt.Errorf("ir: store in %s references invalid field", m.Name)
			}
		}
		for _, c := range m.Calls {
			if c.Invo < 0 || int(c.Invo) >= len(p.Invos) {
				return fmt.Errorf("ir: call in %s has invalid invo", m.Name)
			}
			if p.Invos[c.Invo].Method != MethodID(mi) {
				return fmt.Errorf("ir: invo %s not owned by method %s", p.Invos[c.Invo].Name, m.Name)
			}
			switch c.Kind {
			case Virtual:
				if err := checkVar(c.Base, "vcall in %s", m.Name); err != nil {
					return err
				}
				if c.Sig < 0 || int(c.Sig) >= len(p.Sigs) {
					return fmt.Errorf("ir: vcall in %s has invalid sig", m.Name)
				}
			case Direct:
				if c.Target < 0 || int(c.Target) >= len(p.Methods) {
					return fmt.Errorf("ir: direct call in %s has invalid target", m.Name)
				}
				tgt := &p.Methods[c.Target]
				if !tgt.Static {
					if err := checkVar(c.Base, "direct call in %s", m.Name); err != nil {
						return err
					}
				}
				if len(c.Args) != len(tgt.Formals) {
					return fmt.Errorf("ir: direct call %s -> %s has %d args, want %d",
						m.Name, tgt.Name, len(c.Args), len(tgt.Formals))
				}
			}
			for _, a := range c.Args {
				if err := checkVar(a, "call arg in %s", m.Name); err != nil {
					return err
				}
			}
			if c.Ret != None {
				if err := checkVar(c.Ret, "call ret in %s", m.Name); err != nil {
					return err
				}
			}
		}
		for _, c := range m.Casts {
			if err := checkVar(c.To, "cast in %s", m.Name); err != nil {
				return err
			}
			if err := checkVar(c.From, "cast in %s", m.Name); err != nil {
				return err
			}
			if c.Type < 0 || int(c.Type) >= len(p.Types) {
				return fmt.Errorf("ir: cast in %s has invalid type", m.Name)
			}
		}
		for _, th := range m.Throws {
			if err := checkVar(th.From, "throw in %s", m.Name); err != nil {
				return err
			}
			if err := checkVar(m.Exc, "exc var of %s", m.Name); err != nil {
				return err
			}
		}
		for _, ca := range m.Catches {
			if err := checkVar(ca.Var, "catch in %s", m.Name); err != nil {
				return err
			}
			if ca.Type < 0 || int(ca.Type) >= len(p.Types) {
				return fmt.Errorf("ir: catch in %s has invalid type", m.Name)
			}
		}
	}
	for _, e := range p.Entries {
		if e < 0 || int(e) >= len(p.Methods) {
			return fmt.Errorf("ir: invalid entry method %d", e)
		}
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("ir: program %q has no entry methods", p.Name)
	}
	return nil
}
