package checkers_test

import (
	"context"
	"testing"

	"introspect/internal/checkers"
	"introspect/internal/ir"
	"introspect/internal/pta"
)

// castProgram builds a program whose one cast has exactly the given
// dynamic types flowing into its operand:
//
//	interface I;  interface J
//	class A implements I;  class B extends A;  class C
//
// main allocates one object per entry of flows, moves them all into a
// single operand variable, and casts it to target.
func castProgram(t *testing.T, flows []string, target string) (*ir.Program, ir.Cast) {
	t.Helper()
	b := ir.NewBuilder("cast")
	iI := b.AddInterface("I", nil)
	iJ := b.AddInterface("J", nil)
	tA := b.AddClass("A", ir.None, []ir.TypeID{iI})
	tB := b.AddClass("B", tA, nil)
	tC := b.AddClass("C", ir.None, nil)
	types := map[string]ir.TypeID{
		"Object": b.TypeByName("Object"), "I": iI, "J": iJ, "A": tA, "B": tB, "C": tC,
	}

	mb := b.AddStaticMethod(tA, "main", 0, true)
	op := mb.NewVar("op", ir.None)
	to := mb.NewVar("to", ir.None)
	for _, f := range flows {
		v := mb.NewVar("v", ir.None)
		mb.Alloc(v, types[f], "")
		mb.Move(op, v)
	}
	mb.Cast(to, op, types[target])
	b.AddEntry(mb.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog, prog.Methods[mb.ID()].Casts[0]
}

// TestCastMayFailTable covers the subtype corners of the may-fail-cast
// verdict: upcasts, exact casts, downcasts, unrelated classes, and —
// the case a naive class-hierarchy walk gets wrong — interface targets
// implemented directly, via a superclass, or not at all.
func TestCastMayFailTable(t *testing.T) {
	cases := []struct {
		name    string
		flows   []string // dynamic types reaching the operand
		target  string
		fail    bool
		witness string // dynamic type of the expected witness object
	}{
		{name: "upcast to root", flows: []string{"A", "B", "C"}, target: "Object", fail: false},
		{name: "exact class", flows: []string{"A"}, target: "A", fail: false},
		{name: "upcast subclass", flows: []string{"B"}, target: "A", fail: false},
		{name: "downcast may fail", flows: []string{"A", "B"}, target: "B", fail: true, witness: "A"},
		{name: "downcast sole subclass", flows: []string{"B"}, target: "B", fail: false},
		{name: "unrelated class", flows: []string{"C"}, target: "A", fail: true, witness: "C"},
		{name: "mixed unrelated", flows: []string{"B", "C"}, target: "A", fail: true, witness: "C"},
		{name: "interface direct impl", flows: []string{"A"}, target: "I", fail: false},
		{name: "interface via superclass", flows: []string{"B"}, target: "I", fail: false},
		{name: "interface not implemented", flows: []string{"C"}, target: "I", fail: true, witness: "C"},
		{name: "interface never implemented", flows: []string{"A", "B"}, target: "J", fail: true, witness: "A"},
		{name: "empty operand", flows: nil, target: "B", fail: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, cast := castProgram(t, tc.flows, tc.target)
			res, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1})
			if err != nil {
				t.Fatal(err)
			}
			h, fail := checkers.CastMayFail(res, nil, cast)
			if fail != tc.fail {
				t.Fatalf("CastMayFail(%v -> %s) = %v, want %v", tc.flows, tc.target, fail, tc.fail)
			}
			if !tc.fail {
				return
			}
			if got := prog.TypeName(prog.HeapType(h)); got != tc.witness {
				t.Errorf("witness object type = %s, want %s", got, tc.witness)
			}
		})
	}
}
