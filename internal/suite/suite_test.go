package suite

import (
	"testing"

	"introspect/internal/ir"
)

func TestLoadAllBenchmarks(t *testing.T) {
	for _, name := range Names() {
		prog, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		st := prog.Stats()
		if st.Methods < 300 {
			t.Errorf("%s: only %d methods; benchmarks should be program-sized", name, st.Methods)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nosuch"); err == nil {
		t.Error("Load of unknown benchmark should fail")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	p := Profiles()["antlr"]
	a := p.Build()
	b := p.Build()
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Errorf("generation not deterministic: %v vs %v", sa, sb)
	}
	// Deep equality on a sample: same heap names in same order.
	for i := 0; i < a.NumHeaps() && i < 50; i++ {
		if a.Heaps[i].Name != b.Heaps[i].Name {
			t.Fatalf("heap %d differs: %q vs %q", i, a.Heaps[i].Name, b.Heaps[i].Name)
		}
	}
}

func TestCacheReturnsSameProgram(t *testing.T) {
	a := MustLoad("lusearch")
	b := MustLoad("lusearch")
	if a != b {
		t.Error("Load should memoize")
	}
}

func TestSubjectLists(t *testing.T) {
	if len(Names()) != 9 {
		t.Errorf("Names() has %d entries, want 9 (DaCapo set)", len(Names()))
	}
	if len(ExperimentalSubjects()) != 6 {
		t.Errorf("ExperimentalSubjects() has %d, want 6", len(ExperimentalSubjects()))
	}
	if len(Figure4Subjects()) != 7 {
		t.Errorf("Figure4Subjects() has %d, want 7", len(Figure4Subjects()))
	}
	all := map[string]bool{}
	for _, n := range Names() {
		all[n] = true
	}
	for _, n := range append(ExperimentalSubjects(), Figure4Subjects()...) {
		if !all[n] {
			t.Errorf("subject %s not in Names()", n)
		}
	}
}

// TestPatternsProduceDistinctAllocSites guards a generator invariant:
// every alloc instruction has its own heap id.
func TestPatternsProduceDistinctAllocSites(t *testing.T) {
	prog := MustLoad("antlr")
	seen := map[ir.HeapID]bool{}
	for mi := range prog.Methods {
		for _, a := range prog.Methods[mi].Allocs {
			if seen[a.Heap] {
				t.Fatalf("heap %d used by two alloc instructions", a.Heap)
			}
			seen[a.Heap] = true
		}
	}
	if len(seen) != prog.NumHeaps() {
		t.Errorf("%d alloc instructions vs %d heaps", len(seen), prog.NumHeaps())
	}
}
