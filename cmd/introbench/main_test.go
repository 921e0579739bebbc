package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// updateGolden refreshes testdata/fig5.golden instead of comparing
// against it. Pass it through go test's -args separator.
var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// msColumn matches the trailing wall-clock milliseconds column, the
// only nondeterministic part of the figure tables. The golden file has
// it scrubbed to a dash; TIMEOUT rows already end in a dash and are
// untouched.
var msColumn = regexp.MustCompile(`(?m) +\d+$`)

// TestFig5Golden regenerates Figure 5 in-process and byte-compares it
// (modulo the ms column) against testdata/fig5.golden, which was
// captured before the pipeline refactor. A diff here means the
// analysis layer changed observable results, not just plumbing.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run Fig5Golden -args -update
func TestFig5Golden(t *testing.T) { testFigGolden(t, "5", "fig5.golden") }

// TestFig4Golden pins Figure 4, the share of call sites and objects
// each heuristic leaves unrefined. The table has no timing column, so
// the comparison is byte-exact.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run Fig4Golden -args -update
func TestFig4Golden(t *testing.T) { testFigGolden(t, "4", "fig4.golden") }

// TestFigCSGolden pins the cut-shortcut extension figure the same way:
// the solver is deterministic, so the whole table (work units,
// precision counters, timeout pattern) must reproduce byte-for-byte.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run FigCSGolden -args -update
func TestFigCSGolden(t *testing.T) { testFigGolden(t, "8", "figcs.golden") }

// TestFigTaintGolden pins the taint-client extension figure. Every
// number in it is deterministic (work units and report counts; there
// is no ms column), so the byte-compare asserts the full per-policy
// true/false-positive spread against the kernel ground truth.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run FigTaintGolden -args -update
func TestFigTaintGolden(t *testing.T) { testFigGolden(t, "9", "figtaint.golden") }

func testFigGolden(t *testing.T, fig, file string) {
	t.Helper()
	if testing.Short() {
		t.Skip("regenerates a full figure; skipped with -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", fig}, &buf); err != nil {
		t.Fatal(err)
	}
	got := msColumn.ReplaceAll(buf.Bytes(), []byte("        -"))

	golden := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("figure %s output differs from golden.\n--- got ---\n%s\n--- want ---\n%s", fig, got, want)
	}
}
