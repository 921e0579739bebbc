package introspect

import (
	"strings"
	"testing"

	"introspect/internal/ir"
	"introspect/internal/randprog"
)

func TestMetricDomains(t *testing.T) {
	wantDomains := map[Metric]domain{
		InFlowMetric: invoDomain, TotalVolumeMetric: methodDomain,
		MaxVarPointsToMetric: methodDomain, MaxFieldPointsToMetric: heapDomain,
		TotalFieldPointsToMetric: heapDomain, MaxVarFieldPointsToMetric: methodDomain,
		PointedByVarsMetric: heapDomain, PointedByObjsMetric: heapDomain,
	}
	for m, d := range wantDomains {
		if m.domain() != d {
			t.Errorf("%s domain wrong", m)
		}
		if m.String() == "" {
			t.Errorf("metric %d has no name", m)
		}
	}
}

// TestSyntacticExclusions checks the traditional-heuristic baseline's
// selection machinery.
func TestSyntacticExclusions(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	// Random programs allocate classes C0..C3: exclude C1 allocations
	// syntactically.
	ref := SyntacticExclusions(prog, SyntacticOptions{ExcludeTypeSubstrings: []string{"C1"}})
	found := false
	ref.Heaps.ForEach(func(h int32) {
		found = true
		if name := prog.TypeName(prog.HeapType(ir.HeapID(h))); !strings.Contains(name, "C1") {
			t.Errorf("excluded heap of type %s, want only C1", name)
		}
	})
	if !found {
		t.Error("no C1 allocations excluded")
	}
}
