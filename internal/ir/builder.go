package ir

import (
	"fmt"
	"slices"
	"sort"
)

// Builder constructs a Program incrementally: a new one from
// NewBuilder, or a changed copy of a finished one from Program.Extend.
// It is not safe for concurrent use. Identifiers returned by Add*
// methods are valid in the final Program.
//
// Typical usage:
//
//	b := ir.NewBuilder("example")
//	obj := b.AddClass("Object", ir.None, nil)
//	...
//	prog, err := b.Finish()
type Builder struct {
	prog    Program
	sigIdx  map[string]SigID
	typeIdx map[string]TypeID
	err     error // first recorded construction error
}

// NewBuilder returns a Builder for a program with the given name. It
// pre-creates the root class "Object" (available as Program.ObjectType).
func NewBuilder(name string) *Builder {
	b := &Builder{
		sigIdx:  make(map[string]SigID),
		typeIdx: make(map[string]TypeID),
	}
	b.prog.Name = name
	b.prog.ArrayElem = None
	b.prog.ObjectType = b.AddClass("Object", None, nil)
	return b
}

// Extend returns a Builder over a copy of p; p itself is not changed.
// Every id valid in p keeps its meaning in the program the Builder
// finishes, and the Builder finds p's types and signatures by name.
func (p *Program) Extend() *Builder {
	b := &Builder{
		prog:    *p,
		sigIdx:  make(map[string]SigID, len(p.Sigs)),
		typeIdx: make(map[string]TypeID, len(p.Types)),
	}
	b.prog.Types = slices.Clone(p.Types)
	b.prog.Vars = slices.Clone(p.Vars)
	b.prog.Heaps = slices.Clone(p.Heaps)
	b.prog.Fields = slices.Clone(p.Fields)
	b.prog.Methods = slices.Clone(p.Methods)
	b.prog.Sigs = slices.Clone(p.Sigs)
	b.prog.Invos = slices.Clone(p.Invos)
	b.prog.Entries = slices.Clone(p.Entries)
	for i, s := range p.Sigs {
		b.sigIdx[s] = SigID(i)
	}
	for i := range p.Types {
		b.typeIdx[p.Types[i].Name] = TypeID(i)
	}
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("ir: "+format, args...)
	}
}

// Sig interns a method signature string (conventionally "name/arity").
func (b *Builder) Sig(s string) SigID {
	if id, ok := b.sigIdx[s]; ok {
		return id
	}
	id := SigID(len(b.prog.Sigs))
	b.prog.Sigs = append(b.prog.Sigs, s)
	b.sigIdx[s] = id
	return id
}

// AddClass adds a class with the given superclass (None means it extends
// Object, except for Object itself) and implemented interfaces.
func (b *Builder) AddClass(name string, super TypeID, ifaces []TypeID) TypeID {
	return b.addType(name, ClassKind, super, ifaces, false)
}

// AddAbstractClass adds a class that is never instantiated directly.
func (b *Builder) AddAbstractClass(name string, super TypeID, ifaces []TypeID) TypeID {
	return b.addType(name, ClassKind, super, ifaces, true)
}

// AddRootClass adds a class that, unlike every other class a Builder
// adds, does not extend Object: it is a hierarchy root of its own. Its
// objects fail every cast to a program type, Object included, which is
// what a synthetic analysis-fact class wants.
func (b *Builder) AddRootClass(name string) TypeID {
	t := b.AddClass(name, None, nil)
	if t != None {
		b.prog.Types[t].Super = None
	}
	return t
}

// AddInterface adds an interface extending the given interfaces.
func (b *Builder) AddInterface(name string, ifaces []TypeID) TypeID {
	return b.addType(name, InterfaceKind, None, ifaces, true)
}

func (b *Builder) addType(name string, kind TypeKind, super TypeID, ifaces []TypeID, abstract bool) TypeID {
	if _, ok := b.typeIdx[name]; ok {
		b.fail("duplicate type %q", name)
		return None
	}
	if kind == ClassKind && super == None && len(b.prog.Types) > 0 {
		super = b.prog.ObjectType
	}
	id := TypeID(len(b.prog.Types))
	b.prog.Types = append(b.prog.Types, Type{
		Name: name, Kind: kind, Super: super,
		Interfaces: append([]TypeID(nil), ifaces...),
		Abstract:   abstract,
	})
	b.typeIdx[name] = id
	return id
}

// TypeByName returns a previously added type, or None.
func (b *Builder) TypeByName(name string) TypeID {
	if id, ok := b.typeIdx[name]; ok {
		return id
	}
	return None
}

// AddField adds an instance field declared by owner.
func (b *Builder) AddField(owner TypeID, name string) FieldID {
	id := FieldID(len(b.prog.Fields))
	b.prog.Fields = append(b.prog.Fields, Field{Name: name, Owner: owner})
	return id
}

// ArrayElemField returns the distinguished array-contents pseudo-field,
// creating it on first use.
func (b *Builder) ArrayElemField() FieldID {
	if b.prog.ArrayElem == None {
		b.prog.ArrayElem = FieldID(len(b.prog.Fields))
		b.prog.Fields = append(b.prog.Fields, Field{Name: "[elem]", Owner: None})
	}
	return b.prog.ArrayElem
}

// MethodBuilder accumulates the body of one method.
type MethodBuilder struct {
	b  *Builder
	id MethodID
}

// AddMethod declares an instance method on owner with the given dispatch
// signature and parameter count. The receiver variable ("this"), formal
// parameter variables, and return variable (unless void) are created
// automatically.
func (b *Builder) AddMethod(owner TypeID, name, sig string, nparams int, void bool) *MethodBuilder {
	return b.addMethod(owner, name, sig, nparams, void, false)
}

// AddStaticMethod declares a static method. Static methods never take
// part in virtual dispatch; callers use Direct calls.
func (b *Builder) AddStaticMethod(owner TypeID, name string, nparams int, void bool) *MethodBuilder {
	return b.addMethod(owner, name, name, nparams, void, true)
}

func (b *Builder) addMethod(owner TypeID, name, sig string, nparams int, void, static bool) *MethodBuilder {
	id := MethodID(len(b.prog.Methods))
	qname := name
	if owner != None {
		qname = b.prog.Types[owner].Name + "." + name
	}
	m := Method{
		Name:   qname,
		Sig:    b.Sig(fmt.Sprintf("%s/%d", sig, nparams)),
		Owner:  owner,
		Static: static,
		This:   None,
		Ret:    None,
	}
	b.prog.Methods = append(b.prog.Methods, m)
	mb := &MethodBuilder{b: b, id: id}
	mm := &b.prog.Methods[id]
	if !static {
		mm.This = mb.NewVar("this", owner)
	}
	for i := 0; i < nparams; i++ {
		mm.Formals = append(mm.Formals, mb.NewVar(fmt.Sprintf("p%d", i), None))
	}
	if !void {
		mm.Ret = mb.NewVar("ret", None)
	}
	mm.Exc = mb.NewVar("exc", None)
	return mb
}

// Method returns a MethodBuilder that adds to the existing method id.
// It clips the method's instruction lists first, so that on a Builder
// from Extend an append copies a list rather than writing into the
// array the extended program still holds.
func (b *Builder) Method(id MethodID) *MethodBuilder {
	m := &b.prog.Methods[id]
	m.Allocs = slices.Clip(m.Allocs)
	m.Moves = slices.Clip(m.Moves)
	m.Loads = slices.Clip(m.Loads)
	m.Stores = slices.Clip(m.Stores)
	m.Calls = slices.Clip(m.Calls)
	m.Casts = slices.Clip(m.Casts)
	m.SLoads = slices.Clip(m.SLoads)
	m.SStores = slices.Clip(m.SStores)
	m.Throws = slices.Clip(m.Throws)
	m.Catches = slices.Clip(m.Catches)
	return &MethodBuilder{b: b, id: id}
}

// ID returns the method's identifier.
func (mb *MethodBuilder) ID() MethodID { return mb.id }

func (mb *MethodBuilder) m() *Method { return &mb.b.prog.Methods[mb.id] }

// This returns the receiver variable (None for static methods).
func (mb *MethodBuilder) This() VarID { return mb.m().This }

// Formal returns the i-th formal parameter variable.
func (mb *MethodBuilder) Formal(i int) VarID { return mb.m().Formals[i] }

// Ret returns the return-value variable (None for void methods).
func (mb *MethodBuilder) Ret() VarID { return mb.m().Ret }

// SetRet makes v the return variable, the one callers observe.
// Instructions that wrote the old return variable keep writing it, so
// an edit that reroutes a return bridges the two, say with a Cast.
func (mb *MethodBuilder) SetRet(v VarID) {
	if mb.m().Ret == None {
		mb.b.fail("SetRet on void method %s", mb.m().Name)
		return
	}
	mb.m().Ret = v
}

// NewVar creates a fresh local variable in this method.
func (mb *MethodBuilder) NewVar(name string, t TypeID) VarID {
	id := VarID(len(mb.b.prog.Vars))
	mb.b.prog.Vars = append(mb.b.prog.Vars, Var{Name: name, Method: mb.id, Type: t})
	return id
}

// Alloc emits "v = new t" and returns the new allocation site.
func (mb *MethodBuilder) Alloc(v VarID, t TypeID, label string) HeapID {
	if t != None && mb.b.prog.Types[t].Abstract {
		mb.b.fail("allocation of abstract type %s in %s", mb.b.prog.Types[t].Name, mb.m().Name)
	}
	h := HeapID(len(mb.b.prog.Heaps))
	name := label
	if name == "" {
		name = fmt.Sprintf("new %s@%s#%d", mb.b.prog.TypeName(t), mb.m().Name, len(mb.m().Allocs))
	}
	mb.b.prog.Heaps = append(mb.b.prog.Heaps, Heap{Name: name, Type: t, Method: mb.id})
	mb.m().Allocs = append(mb.m().Allocs, Alloc{Var: v, Heap: h})
	return h
}

// Move emits "to = from".
func (mb *MethodBuilder) Move(to, from VarID) {
	mb.m().Moves = append(mb.m().Moves, Move{To: to, From: from})
}

// Load emits "to = base.fld".
func (mb *MethodBuilder) Load(to, base VarID, fld FieldID) {
	mb.m().Loads = append(mb.m().Loads, Load{To: to, Base: base, Field: fld})
}

// Store emits "base.fld = from".
func (mb *MethodBuilder) Store(base VarID, fld FieldID, from VarID) {
	mb.m().Stores = append(mb.m().Stores, Store{Base: base, Field: fld, From: from})
}

// Cast emits "to = (t) from".
func (mb *MethodBuilder) Cast(to, from VarID, t TypeID) {
	mb.m().Casts = append(mb.m().Casts, Cast{To: to, From: from, Type: t})
}

// SLoad emits "to = <static fld>".
func (mb *MethodBuilder) SLoad(to VarID, fld FieldID) {
	mb.m().SLoads = append(mb.m().SLoads, SLoad{To: to, Field: fld})
}

// SStore emits "<static fld> = from".
func (mb *MethodBuilder) SStore(fld FieldID, from VarID) {
	mb.m().SStores = append(mb.m().SStores, SStore{Field: fld, From: from})
}

// Exc returns the method's escaping-exceptions variable.
func (mb *MethodBuilder) Exc() VarID { return mb.m().Exc }

// Throw emits "throw from".
func (mb *MethodBuilder) Throw(from VarID) {
	mb.m().Throws = append(mb.m().Throws, Throw{From: from})
}

// Catch adds a "catch (t var)" clause and returns the fresh variable
// that receives the caught exceptions.
func (mb *MethodBuilder) Catch(t TypeID, name string) VarID {
	if name == "" {
		name = fmt.Sprintf("catch%d", len(mb.m().Catches))
	}
	v := mb.NewVar(name, t)
	mb.CatchVar(t, v)
	return v
}

// CatchVar adds a "catch (t var)" clause writing into an existing
// variable of this method.
func (mb *MethodBuilder) CatchVar(t TypeID, v VarID) {
	mb.m().Catches = append(mb.m().Catches, Catch{Var: v, Type: t})
}

func (mb *MethodBuilder) newInvo() InvoID {
	id := InvoID(len(mb.b.prog.Invos))
	mb.b.prog.Invos = append(mb.b.prog.Invos, Invo{
		Name:   fmt.Sprintf("%s/invo%d", mb.m().Name, len(mb.m().Calls)),
		Method: mb.id,
	})
	return id
}

// VCall emits "ret = base.sig(args...)" (virtual dispatch) and returns
// the invocation site. sig is the bare method name; arity is appended.
func (mb *MethodBuilder) VCall(ret, base VarID, sig string, args ...VarID) InvoID {
	invo := mb.newInvo()
	mb.m().Calls = append(mb.m().Calls, Call{
		Kind: Virtual, Invo: invo, Base: base,
		Sig:  mb.b.Sig(fmt.Sprintf("%s/%d", sig, len(args))),
		Args: append([]VarID(nil), args...), Ret: ret, Target: None,
	})
	return invo
}

// Call emits a direct call to target (a static method or constructor).
// base is the receiver for instance targets, None for static targets.
func (mb *MethodBuilder) Call(ret VarID, target MethodID, base VarID, args ...VarID) InvoID {
	invo := mb.newInvo()
	mb.m().Calls = append(mb.m().Calls, Call{
		Kind: Direct, Invo: invo, Base: base, Target: target, Sig: None,
		Args: append([]VarID(nil), args...), Ret: ret,
	})
	return invo
}

// AddEntry marks a method as initially reachable.
func (b *Builder) AddEntry(m MethodID) { b.prog.Entries = append(b.prog.Entries, m) }

// Finish validates and freezes the program, computing subtype closures
// and virtual-dispatch tables. The Builder must not be used afterwards.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &b.prog
	if err := p.computeHierarchy(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustFinish is Finish for programs that are known-correct by
// construction (e.g. generated suites); it panics on error.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}

// computeHierarchy computes the subtype closures and virtual-dispatch
// tables of p. Builder.Finish runs it on every program it returns; on
// a Builder from Extend it replaces the copied types' maps with new
// ones, so the extended program's maps are never written.
func (p *Program) computeHierarchy() error {
	// Topological order over supertype edges (parents first).
	order := make([]TypeID, 0, len(p.Types))
	state := make([]uint8, len(p.Types)) // 0 unvisited, 1 visiting, 2 done
	var visit func(t TypeID) error
	visit = func(t TypeID) error {
		switch state[t] {
		case 1:
			return fmt.Errorf("ir: type hierarchy cycle at %s", p.Types[t].Name)
		case 2:
			return nil
		}
		state[t] = 1
		tt := &p.Types[t]
		if tt.Super != None {
			if err := visit(tt.Super); err != nil {
				return err
			}
		}
		for _, i := range tt.Interfaces {
			if err := visit(i); err != nil {
				return err
			}
		}
		state[t] = 2
		order = append(order, t)
		return nil
	}
	for t := range p.Types {
		if err := visit(TypeID(t)); err != nil {
			return err
		}
	}

	// Ancestor sets.
	for _, t := range order {
		tt := &p.Types[t]
		tt.ancestors = map[TypeID]bool{t: true}
		if tt.Super != None {
			for a := range p.Types[tt.Super].ancestors { //introvet:allow set union: the result is the same set in any order
				tt.ancestors[a] = true
			}
		}
		for _, i := range tt.Interfaces {
			for a := range p.Types[i].ancestors { //introvet:allow set union: the result is the same set in any order
				tt.ancestors[a] = true
			}
		}
	}

	// Dispatch tables: inherit the superclass table, then apply own
	// instance methods. Methods are applied in id order, which makes the
	// computation deterministic.
	own := make(map[TypeID][]MethodID)
	for m := range p.Methods {
		mm := &p.Methods[m]
		if !mm.Static {
			own[mm.Owner] = append(own[mm.Owner], MethodID(m))
		}
	}
	for _, t := range order {
		tt := &p.Types[t]
		tt.dispatch = make(map[SigID]MethodID)
		if tt.Super != None {
			for s, m := range p.Types[tt.Super].dispatch { //introvet:allow map copy: the result is the same map in any order
				tt.dispatch[s] = m
			}
		}
		ms := own[t]
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		for _, m := range ms {
			tt.dispatch[p.Methods[m].Sig] = m
		}
	}
	return nil
}
