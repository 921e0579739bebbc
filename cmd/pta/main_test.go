package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"introspect/internal/analysis"
)

// updateGolden refreshes testdata goldens instead of comparing. Pass
// it through go test's -args separator:
//
//	go test ./cmd/pta -args -update
var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

const demo = "../../examples/ptalint/holder.mj"

// scrubWall zeroes the only nondeterministic fields of a pta/v1
// document — wall-clock durations — so the rest byte-compares.
var wallRE = regexp.MustCompile(`"(wall_ns|elapsed_ms)":\d+`)

func scrubWall(b []byte) []byte {
	return wallRE.ReplaceAll(b, []byte(`"$1":0`))
}

// TestJSONGolden runs an introspective pipeline in-process with -json
// and byte-compares the pta/v1 document (wall times scrubbed) against
// testdata/pta_json.golden. The solver is deterministic, so every
// counter — work, derivations, contexts, precision — is pinned.
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-mj", demo, "-analysis", "2objH-IntroA", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := scrubWall(buf.Bytes())

	golden := filepath.Join("testdata", "pta_json.golden")
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
		t.Errorf("-json output differs from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestJSONSchema checks the versioned envelope: the document parses,
// declares schema pta/v1, and carries one stage record per pipeline
// stage of an introspective run.
func TestJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-mj", demo, "-analysis", "2objH", "-intro", "A", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Program  string `json:"program"`
		Analysis string `json:"analysis"`
		Complete bool   `json:"complete"`
		Stages   []struct {
			Stage string `json:"stage"`
		} `json:"stages"`
		Precision *struct {
			ReachableMethods int `json:"reachable_methods"`
		} `json:"precision"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.Bytes())
	}
	if doc.Schema != "pta/v1" {
		t.Errorf("schema = %q, want pta/v1", doc.Schema)
	}
	if doc.Analysis != "2objH-IntroA" {
		t.Errorf("analysis = %q (is -intro A shorthand broken?)", doc.Analysis)
	}
	if !doc.Complete {
		t.Error("demo run should complete within the default budget")
	}
	wantStages := []string{"frontend", "pre-pass", "metrics", "selection", "main-pass", "report"}
	if len(doc.Stages) != len(wantStages) {
		t.Fatalf("stages = %d, want %d", len(doc.Stages), len(wantStages))
	}
	for i, s := range doc.Stages {
		if s.Stage != wantStages[i] {
			t.Errorf("stage[%d] = %q, want %q", i, s.Stage, wantStages[i])
		}
	}
	if doc.Precision == nil || doc.Precision.ReachableMethods == 0 {
		t.Errorf("precision missing or empty: %+v", doc.Precision)
	}
}

// TestTextSmoke pins the non-JSON path still renders the summary.
func TestTextSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-mj", demo, "-analysis", "insens"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("precision:")) {
		t.Errorf("text output missing precision line:\n%s", buf.Bytes())
	}
}

// TestRegisteredSpecsRun drives every spec the registry advertises
// through the CLI end-to-end — the flag help text is generated from the
// same list, so a registered spec this command cannot run (cs included)
// fails here rather than surprising a user who copied it from -help.
func TestRegisteredSpecsRun(t *testing.T) {
	for _, spec := range analysis.RegisteredSpecs() {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-mj", demo, "-analysis", spec}, &buf); err != nil {
			t.Errorf("-analysis %s: %v", spec, err)
			continue
		}
		if !bytes.Contains(buf.Bytes(), []byte("precision:")) {
			t.Errorf("-analysis %s: output missing precision line:\n%s", spec, buf.Bytes())
		}
	}
}

// TestEmitRoundTrip drives the one program writer: -emit writes the
// loaded program as textual IR, and analyzing that file with -ir gives
// the same pta/v1 document, wall times scrubbed, as analyzing the
// source it came from.
func TestEmitRoundTrip(t *testing.T) {
	for _, c := range []struct {
		src  []string
		spec string
	}{
		{[]string{"-mj", demo}, "2objH-IntroA"},
		{[]string{"-bench", "antlr"}, "2objH-IntroB"},
	} {
		irFile := filepath.Join(t.TempDir(), "prog.ir")
		var out bytes.Buffer
		if err := run(context.Background(), append(c.src, "-emit", irFile), &out); err != nil {
			t.Fatalf("%v -emit: %v", c.src, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v -emit wrote to stdout:\n%s", c.src, out.Bytes())
		}
		want := runJSON(t, append(c.src, "-analysis", c.spec, "-json"))
		got := runJSON(t, []string{"-ir", irFile, "-analysis", c.spec, "-json"})
		if !bytes.Equal(got, want) {
			t.Errorf("%v: -ir of the emitted IR differs from the source's own run.\n--- -ir ---\n%s\n--- source ---\n%s", c.src, got, want)
		}
	}
}

// runJSON runs the command in-process and returns its output with wall
// times scrubbed.
func runJSON(t *testing.T, args []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return scrubWall(buf.Bytes())
}
