package pta

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"introspect/internal/ir"
	"introspect/internal/randprog"
	"introspect/internal/suite"
)

// solveProv runs one analysis with the provenance recorder on.
func solveProv(t testing.TB, prog *ir.Program, analysis string) *Result {
	t.Helper()
	res, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1, Provenance: true})
	if err != nil {
		t.Fatalf("%s with provenance: %v", analysis, err)
	}
	return res
}

// TestProvenanceDoesNotChangeResults asserts that recording is
// read-only: a solve with the recorder on has the same facts,
// reachability, call graph and work count as one with it off, and
// exactly one recorded source per derivation. Besides random programs
// it checks jython insens, the solve BenchmarkProvenance times, where
// the recorder witnesses millions of facts.
func TestProvenanceDoesNotChangeResults(t *testing.T) {
	type solve struct {
		label, analysis string
		prog            *ir.Program
	}
	var solves []solve
	for seed := int64(1); seed <= 20; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		for _, analysis := range []string{"insens", "2objH", "1call"} {
			solves = append(solves, solve{fmt.Sprintf("seed %d %s", seed, analysis), analysis, prog})
		}
	}
	solves = append(solves, solve{"jython insens", "insens", suite.MustLoad("jython")})
	for _, c := range solves {
		plain, err := Analyze(context.Background(), c.prog, c.analysis, Options{Budget: -1})
		if err != nil {
			t.Fatal(err)
		}
		prov := solveProv(t, c.prog, c.analysis)
		if a, b := plain.VarPTSize(), prov.VarPTSize(); a != b {
			t.Errorf("%s: VarPTSize %d (plain) != %d (provenance)", c.label, a, b)
		}
		if a, b := plain.FieldPTSize(), prov.FieldPTSize(); a != b {
			t.Errorf("%s: FieldPTSize %d != %d", c.label, a, b)
		}
		if a, b := plain.Work, prov.Work; a != b {
			t.Errorf("%s: Work %d != %d", c.label, a, b)
		}
		if a, b := plain.Derivations, prov.Derivations; a != b {
			t.Errorf("%s: Derivations %d != %d", c.label, a, b)
		}
		if a, b := plain.NumReachableMethods(), prov.NumReachableMethods(); a != b {
			t.Errorf("%s: reachable %d != %d", c.label, a, b)
		}
		if a, b := plain.NumCallGraphEdges(), prov.NumCallGraphEdges(); a != b {
			t.Errorf("%s: cg edges %d != %d", c.label, a, b)
		}
		if got, want := prov.NumProvenanceFacts(), int(prov.Derivations); got != want {
			t.Errorf("%s: %d provenance records, want one per derivation (%d)", c.label, got, want)
		}
		if plain.ProvenanceEnabled() {
			t.Errorf("%s: plain run claims provenance", c.label)
		}
	}
}

// hashSources feeds every fact of res — node, hc and recorded source,
// in node then hc order — into h and returns the number of facts.
func hashSources(t *testing.T, label string, h hash.Hash64, res *Result) int {
	t.Helper()
	s := res.s
	facts := 0
	var buf []byte
	for n := range s.kind {
		n := int32(n)
		s.ptOf(n).ForEach(func(hc int32) {
			src, ok := s.prov.source(n, hc)
			if !ok {
				t.Fatalf("%s: fact (%s, %d) has no recorded source", label, s.debugNode(n), hc)
			}
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(n))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(hc))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(src))
			h.Write(buf)
			facts++
		})
	}
	return facts
}

// TestProvenanceSourcesPinned pins WHICH derivation the recorder keeps
// for every fact, not only that it is a valid one (checkWitnesses):
// the digest of all (node, hc, source) triples must equal the constants
// below, over random programs and one budget-capped suite solve that
// stops partway through. A change to propagation order or to how
// sources are recorded shows up here as a different digest.
func TestProvenanceSourcesPinned(t *testing.T) {
	for _, c := range []struct {
		analysis string
		facts    int
		sum      uint64
	}{
		{"insens", 1851, 0xde8289b10a59c2d7},
		{"2objH", 4866, 0x92daad16bc89922f},
		{"1call", 2580, 0x85dc006f68fd3f57},
	} {
		h := fnv.New64a()
		facts := 0
		for seed := int64(1); seed <= 20; seed++ {
			prog := randprog.Generate(seed, randprog.Default())
			facts += hashSources(t, fmt.Sprintf("seed %d %s", seed, c.analysis), h, solveProv(t, prog, c.analysis))
		}
		if facts != c.facts || h.Sum64() != c.sum {
			t.Errorf("%s: %d facts, digest %#x; want %d, %#x", c.analysis, facts, h.Sum64(), c.facts, c.sum)
		}
	}

	res, err := Analyze(context.Background(), suite.MustLoad("hsqldb"), "2objH",
		Options{Budget: 3_000_000, Provenance: true})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("hsqldb 2objH at budget 3M: err = %v, want the budget to run out", err)
	}
	h := fnv.New64a()
	const wantFacts, wantSum = 1390901, 0x5332ee21e1cdddc1
	if facts := hashSources(t, "hsqldb 2objH", h, res); facts != wantFacts || h.Sum64() != wantSum {
		t.Errorf("hsqldb 2objH budget-capped: %d facts, digest %#x; want %d, %#x", facts, h.Sum64(), wantFacts, uint64(wantSum))
	}
}

// checkWitnesses replays every recorded var-node witness of res against
// the solver's own constraint graph: each chain node must hold the
// fact, consecutive nodes must be joined by an installed edge whose
// filter the object passes, and the chain must start at an introduction
// point (the allocation's target variable, or a this bound by
// dispatch). It returns the number of facts checked.
func checkWitnesses(t testing.TB, label string, prog *ir.Program, res *Result) int {
	t.Helper()
	s := res.s

	// (var, heap) pairs introduced by Alloc instructions.
	allocs := map[[2]int32]bool{}
	thisVars := map[ir.VarID]bool{}
	for mi := range prog.Methods {
		m := &prog.Methods[mi]
		for _, a := range m.Allocs {
			allocs[[2]int32{int32(a.Var), int32(a.Heap)}] = true
		}
		if m.This != ir.None {
			thisVars[m.This] = true
		}
	}

	connected := func(a, b, hc int32) bool {
		for c := s.succHead[a]; c != 0; c = s.edges[c].next {
			if e := s.edges[c]; e.dst == b && s.passesFilter(hc, e.filter) {
				return true
			}
		}
		return false
	}

	checked := 0
	for n := range s.kind {
		if s.kind[n] != varNode {
			continue
		}
		n := int32(n)
		s.ptOf(n).ForEach(func(hc int32) {
			checked++
			chain, ok := res.explainChain(n, hc)
			if !ok {
				t.Fatalf("%s: fact (%s, %s) has no witness", label, s.debugNode(n), prog.HeapName(s.hcHeap[hc]))
			}
			if chain[len(chain)-1] != n {
				t.Fatalf("%s: witness for %s does not end at the queried node", label, s.debugNode(n))
			}
			for i, cn := range chain {
				if !s.ptOf(cn).Has(hc) {
					t.Fatalf("%s: witness node %s does not hold the fact", label, s.debugNode(cn))
				}
				if i > 0 && !connected(chain[i-1], cn, hc) {
					t.Fatalf("%s: witness steps %s -> %s not joined by a passing edge",
						label, s.debugNode(chain[i-1]), s.debugNode(cn))
				}
			}
			intro := chain[0]
			if s.kind[intro] != varNode {
				t.Fatalf("%s: witness starts at non-var node %s", label, s.debugNode(intro))
			}
			iv := ir.VarID(s.nodeA[intro])
			if !allocs[[2]int32{s.nodeA[intro], int32(s.hcHeap[hc])}] && !thisVars[iv] {
				t.Fatalf("%s: witness intro %s is neither the alloc target of %s nor a this-binding",
					label, s.debugNode(intro), prog.HeapName(s.hcHeap[hc]))
			}
		})
	}
	return checked
}

// passesFilter reports whether object hc may cross an edge with the
// given cast filter.
func (s *solver) passesFilter(hc int32, filter ir.TypeID) bool {
	if filter == ir.None {
		return true
	}
	return s.prog.SubtypeOf(s.prog.HeapType(s.hcHeap[hc]), filter)
}

// debugNode formats a node for test failure messages.
func (s *solver) debugNode(n int32) string {
	switch s.kind[n] {
	case varNode:
		return s.prog.VarName(ir.VarID(s.nodeA[n])) + "@ctx" + strconv.Itoa(int(s.nodeB[n]))
	case fieldNode:
		return "fld(" + s.prog.HeapName(s.hcHeap[s.nodeA[n]]) + "." + s.prog.Fields[s.nodeB[n]].Name + ")"
	default:
		return "static(" + s.prog.Fields[s.nodeA[n]].Name + ")"
	}
}

// TestProvenanceWitnessesReplay is the witness-validity property over
// random programs: every recorded derivation path replays step by step
// under the insensitive solver (and a context-sensitive one).
func TestProvenanceWitnessesReplay(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 20; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		for _, analysis := range []string{"insens", "2objH"} {
			res := solveProv(t, prog, analysis)
			total += checkWitnesses(t, fmt.Sprintf("seed %d %s", seed, analysis), prog, res)
		}
	}
	if total == 0 {
		t.Fatal("no facts checked; generator produced empty programs")
	}
}

// TestExplainAPI exercises the exported witness reconstruction on a
// hand-built flow: alloc -> move -> store -> load.
func TestExplainAPI(t *testing.T) {
	b := ir.NewBuilder("explain")
	cls := b.AddClass("C", ir.None, nil)
	f := b.AddField(cls, "f")
	mb := b.AddStaticMethod(cls, "main", 0, true)
	box := mb.NewVar("box", cls)
	val := mb.NewVar("val", cls)
	cp := mb.NewVar("cp", cls)
	out := mb.NewVar("out", cls)
	hBox := mb.Alloc(box, cls, "new C#box")
	hVal := mb.Alloc(val, cls, "new C#val")
	mb.Move(cp, val)
	mb.Store(box, f, cp)
	mb.Load(out, box, f)
	b.AddEntry(mb.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	res := solveProv(t, prog, "insens")
	if !res.ProvenanceEnabled() {
		t.Fatal("provenance not enabled")
	}
	w, ok := res.ExplainHeap(out, hVal)
	if !ok {
		t.Fatal("ExplainHeap found no witness for out -> new C#val")
	}
	if w.Heap != hVal {
		t.Errorf("witness heap = %v, want %v", w.Heap, hVal)
	}
	got := w.Format(prog)
	want := "alloc new C#val -> C.main.val -> C.main.cp -> new C#box.f -> C.main.out"
	if got != want {
		t.Errorf("witness path:\n got %q\nwant %q", got, want)
	}
	if w.Steps[0].Kind != WitnessAlloc {
		t.Error("witness does not start with an alloc step")
	}

	// The box object flows directly: alloc -> box.
	w2, ok := res.ExplainHeap(box, hBox)
	if !ok || len(w2.Steps) != 2 {
		t.Fatalf("ExplainHeap(box) = %v, %v; want 2-step witness", w2, ok)
	}

	// Absent facts and disabled recorders return ok=false.
	if _, ok := res.ExplainHeap(val, hBox); ok {
		t.Error("ExplainHeap invented a witness for a fact that does not hold")
	}
	plain, err := Analyze(context.Background(), prog, "insens", Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.ExplainHeap(out, hVal); ok {
		t.Error("ExplainHeap succeeded without provenance recording")
	}
	if strings.Contains(plain.Analysis, "prov") {
		t.Error("provenance must not rename the analysis")
	}
}

// FuzzProvenanceReplay fuzzes the witness-validity property through the
// randprog generator: any seed must yield a program whose recorded
// witnesses all replay. Seeds beyond the corpus explore new shapes.
func FuzzProvenanceReplay(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(42))
	f.Add(int64(-3))
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := randprog.Generate(seed, randprog.Default())
		res, err := Analyze(context.Background(), prog, "insens", Options{Budget: 5_000_000, Provenance: true})
		if err != nil {
			t.Skip("budget exhausted; witness DAG incomplete by design")
		}
		checkWitnesses(t, fmt.Sprintf("seed %d", seed), prog, res)
	})
}
