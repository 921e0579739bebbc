package checkers

import (
	"fmt"

	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/taint"
)

// CastMayFail reports whether cast c may fail at runtime under res:
// whether the operand may hold an object whose dynamic (allocated)
// type is not a subtype of the cast target. Subtyping here is the
// program's full reflexive-transitive relation, so it handles every
// target kind uniformly:
//
//   - class targets: the object's class must be the target or a
//     (transitive) subclass;
//   - interface targets: the object's class must implement the target
//     directly, through a superclass, or through a super-interface;
//   - upcasts (target is a supertype of everything that flows) never
//     fail; downcasts and casts to unrelated types fail when any
//     incompatible object flows in.
//
// inj is the run's taint injection, nil for a run without one. Its
// synthetic taint$ objects fail every cast by design (taint$ is outside
// the Object hierarchy, and the sanitizer's injected `(Object) ret`
// cast is what removes taint), so they never make a cast fail here.
//
// When the cast may fail, the lowest-numbered conflicting allocation
// site is returned as the witness object.
func CastMayFail(res *pta.Result, inj *taint.Injection, c ir.Cast) (ir.HeapID, bool) {
	prog := res.Prog
	conflict := ir.HeapID(ir.None)
	res.VarHeaps(c.From).ForEach(func(h int32) {
		if conflict != ir.None || prog.SubtypeOf(prog.HeapType(ir.HeapID(h)), c.Type) ||
			inj != nil && inj.IsTaintHeap(ir.HeapID(h)) {
			return
		}
		conflict = ir.HeapID(h)
	})
	return conflict, conflict != ir.None
}

// MayFailCastChecker reports every reachable cast instruction whose
// operand may hold an object incompatible with the target type — the
// paper's "may-fail casts" precision metric, as individual diagnostics
// with the conflicting object and (under provenance) its flow path.
type MayFailCastChecker struct{}

// Name returns the checker's rule id.
func (MayFailCastChecker) Name() string { return "may-fail-cast" }

// Desc describes the checker.
func (MayFailCastChecker) Desc() string {
	return "reachable casts whose operand may hold an object incompatible with the target type"
}

// Check scans the reachable methods' casts. Under a taint run
// (Target.Taint non-nil) a cast is reported only if a real program
// object may fail it (see CastMayFail).
func (MayFailCastChecker) Check(t *Target) []Diagnostic {
	prog := t.Prog
	var out []Diagnostic
	for mi := range prog.Methods {
		m := &prog.Methods[mi]
		if !t.Res.MethodReachable(ir.MethodID(mi)) {
			continue
		}
		for _, c := range m.Casts {
			h, fail := CastMayFail(t.Res, t.Taint, c)
			if !fail {
				continue
			}
			out = append(out, Diagnostic{
				Checker:  MayFailCastChecker{}.Name(),
				Severity: Error,
				Site:     fmt.Sprintf("%s = (%s) %s", prog.VarName(c.To), prog.TypeName(c.Type), prog.VarName(c.From)),
				Message: fmt.Sprintf("cast to %s may fail: operand may hold %s (dynamic type %s)",
					prog.TypeName(c.Type), prog.HeapName(h), prog.TypeName(prog.HeapType(h))),
				Witness: witnessFor(t, c.From, h),
			})
		}
	}
	return out
}
