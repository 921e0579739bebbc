package introspect_test

import (
	"context"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/randprog"
)

// TestSyntacticPipeline checks the traditional-heuristic baseline end
// to end: the pipeline skips the pre-pass and metrics stages and names
// the analysis <deep>-syntactic.
func TestSyntacticPipeline(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog,
		Job: analysis.Job{
			Spec:      "2objH",
			Syntactic: &introspect.SyntacticOptions{ExcludeTypeSubstrings: []string{"C1"}},
		},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Main.Analysis != "2objH-syntactic" {
		t.Errorf("analysis name %q", res.Main.Analysis)
	}
	if res.First != nil {
		t.Error("syntactic pipeline should not run a pre-pass")
	}
	for _, st := range res.Stages {
		if st.Stage == analysis.StagePrePass || st.Stage == analysis.StageMetrics {
			t.Errorf("syntactic pipeline ran stage %s", st.Stage)
		}
	}
}
