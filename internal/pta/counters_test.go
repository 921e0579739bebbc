package pta

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"introspect/internal/suite"
)

// updateGolden refreshes testdata/counters.golden instead of comparing
// against it. Pass it through go test's -args separator.
var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// countersBudget caps every TestSolverCountersPinned run. Each deep
// spec (2objH, 2typeH, 2callH) must run out of it on at least one
// subject, so the golden pins capped runs, whose derivations and graph
// sizes depend on propagation order; the figure goldens already pin
// complete ones. It is low enough that the test takes about a second,
// and a few under -race: 2callH creates most of its nodes before the
// first flush, so a larger budget mostly adds time.
const countersBudget = 100_000

// TestSolverCountersPinned pins the solver's deterministic counters for
// each Figure 5–7 subject under insens and the three deep specs: work,
// derivations, propagations, constraint-graph size, interned
// populations and points-to volume. A change to propagation order,
// edge order or work accounting shows up here as a diff, capped runs
// included.
//
// Refresh after an intentional change with:
//
//	go test ./internal/pta -run SolverCountersPinned -args -update
func TestSolverCountersPinned(t *testing.T) {
	var buf bytes.Buffer
	capped := map[string]bool{}
	for _, b := range suite.ExperimentalSubjects() {
		prog := suite.MustLoad(b)
		for _, a := range []string{"insens", "2objH", "2typeH", "2callH"} {
			res, err := Analyze(context.Background(), prog, a, Options{Budget: countersBudget})
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s %s: %v", b, a, err)
			}
			if !res.Complete {
				capped[a] = true
			}
			nodes, edges := res.ConstraintStats()
			fmt.Fprintf(&buf, "%s %s complete=%v work=%d derivations=%d propagations=%d nodes=%d edges=%d hctx=%d mctx=%d cg=%d varpt=%d fldpt=%d peakpt=%d\n",
				b, a, res.Complete, res.Work, res.Derivations, res.Propagations, nodes, edges,
				res.NumHeapContexts(), res.NumMethodContexts(), res.NumCallGraphEdges(),
				res.VarPTSize(), res.FieldPTSize(), res.PeakPTSize())
		}
	}
	for _, a := range []string{"2objH", "2typeH", "2callH"} {
		if !capped[a] {
			t.Errorf("%s: no run hit the %d budget; lower countersBudget", a, countersBudget)
		}
	}

	golden := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("solver counters differ from %s:\n--- got\n%s--- want\n%s", golden, buf.Bytes(), want)
	}
}
