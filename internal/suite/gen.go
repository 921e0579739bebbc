// Package suite synthesizes the benchmark programs for the
// reproduction's experiments.
//
// The paper evaluates on the DaCapo 2006 benchmarks compiled from Java
// bytecode; neither is available here, so the suite generates synthetic
// subjects named after the DaCapo programs. Each subject is a
// deterministic composition of code patterns that produce the
// structural behaviors the paper studies:
//
//   - bulk:       well-behaved classes with monomorphic calls — the
//     baseline mass every real program has.
//   - typedStore: factory-allocated cells holding per-module payloads —
//     the precision content (devirtualization, cast elimination,
//     reachability) that deep context recovers and a context-insensitive
//     analysis loses.
//   - router:     medium-sized argument flows (between Heuristic A's and
//     B's thresholds) — the precision that IntroB keeps but IntroA
//     sacrifices.
//   - objExplosion:  nested factories creating W·S receiver contexts
//     over wide payload sets — the object-sensitivity cost pathology.
//   - callFanout:    two-level call-site fan-in over static trampolines
//     — the call-site-sensitivity cost pathology.
//   - heavyService:  few contexts over very wide sets (method volume
//     above Heuristic B's P) — pathology that *both* heuristics disarm.
//
// All generation is deterministic: a subject is fully determined by its
// profile.
package suite

import (
	"fmt"

	"introspect/internal/ir"
)

// gen carries shared state while emitting one subject.
type gen struct {
	b    *ir.Builder
	main *ir.MethodBuilder // the program entry; patterns append calls here

	uniq int // counter for unique names
}

func newGen(name string) *gen {
	g := &gen{b: ir.NewBuilder(name)}
	mainCls := g.b.AddClass("Main", ir.None, nil)
	g.main = g.b.AddStaticMethod(mainCls, "main", 0, true)
	g.b.AddEntry(g.main.ID())
	return g
}

func (g *gen) name(prefix string) string {
	g.uniq++
	return fmt.Sprintf("%s%d", prefix, g.uniq)
}

// poolClass is a generated one-slot container:
//
//	class <name> { Object slot;
//	               void put(Object o) { this.slot = o; }
//	               Object get() { return this.slot; } }
//
// Under a flow-insensitive analysis a single mutable slot is an exact
// model of an unbounded collection: every put accumulates. Patterns
// create *private* pool classes (rather than sharing one) so that
// unrelated patterns are not conflated through a common put() formal —
// real programs use distinct collection element types the same way.
type poolClass struct {
	cls      ir.TypeID
	put, get string // dispatch signatures (bare names)
}

// allocPayloads emits n allocations of cls into fresh variables inside
// m, accumulating them in the returned variable. Every third node is
// linked into a list through next (as collection nodes are in real
// programs), which gives those allocation sites a non-trivial
// total-field-points-to — the signal Heuristic B's object metric keys
// on — while the unlinked majority stays below every threshold.
func (g *gen) allocPayloads(m *ir.MethodBuilder, cls ir.TypeID, next ir.FieldID, n int) ir.VarID {
	acc := m.NewVar(g.name("acc"), cls)
	for i := 0; i < n; i++ {
		pv := m.NewVar(fmt.Sprintf("pl%d_%d", g.uniq, i), cls)
		m.Alloc(pv, cls, "")
		if i%3 == 0 {
			m.Store(pv, next, acc)
		}
		m.Move(acc, pv)
	}
	return acc
}

// factory creates a static method owned by cls that allocates a cls
// instance and returns it. Placing allocations inside the allocated
// class (as real factories do) matters for type-sensitivity, whose
// context elements are the classes *containing* allocation sites.
func (g *gen) factory(cls ir.TypeID, name string) ir.MethodID {
	m := g.b.AddStaticMethod(cls, name, 0, false)
	v := m.NewVar("o", cls)
	m.Alloc(v, cls, "")
	m.Move(m.Ret(), v)
	return m.ID()
}

func (g *gen) newPoolClass(name string) poolClass {
	cls := g.b.AddClass(name, ir.None, nil)
	fld := g.b.AddField(cls, "slot")
	putSig := "put_" + name
	getSig := "get_" + name
	put := g.b.AddMethod(cls, "put", putSig, 1, true)
	put.Store(put.This(), fld, put.Formal(0))
	get := g.b.AddMethod(cls, "get", getSig, 0, false)
	get.Load(get.Ret(), get.This(), fld)
	return poolClass{cls: cls, put: putSig, get: getSig}
}

// callFromMain emits "call m()" in the program entry.
func (g *gen) callFromMain(m ir.MethodID) {
	g.main.Call(ir.None, m, ir.None)
}

// finish freezes the program.
func (g *gen) finish() *ir.Program { return g.b.MustFinish() }
