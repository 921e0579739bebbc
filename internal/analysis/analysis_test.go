package analysis_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/taint"
)

// TestSinglePassEquivalence pins that a degenerate (single-pass)
// pipeline is a thin wrapper: it produces exactly the solver's result,
// with the report stage's precision attached.
func TestSinglePassEquivalence(t *testing.T) {
	prog := randprog.Generate(3, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pta.Analyze(context.Background(), prog, "2objH", pta.Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Main.Work != direct.Work || res.Main.Derivations != direct.Derivations {
		t.Errorf("pipeline result diverges from direct solve: work %d vs %d, derivations %d vs %d",
			res.Main.Work, direct.Work, res.Main.Derivations, direct.Derivations)
	}
	if res.First != nil || res.Selection != nil || res.Metrics != nil {
		t.Error("single-pass pipeline should not populate introspective artifacts")
	}
	if res.Precision == nil {
		t.Fatal("report stage did not run")
	}
	if res.Precision.ReachableMethods != direct.NumReachableMethods() {
		t.Errorf("precision reachable %d, want %d",
			res.Precision.ReachableMethods, direct.NumReachableMethods())
	}
	if res.Analysis != "2objH" {
		t.Errorf("analysis name %q", res.Analysis)
	}
}

// TestUnknownVariant checks the registry's error path: a spec with an
// unregistered suffix fails with a message listing what IS registered.
func TestUnknownVariant(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	_, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroZ"},
	})
	if err == nil {
		t.Fatal("expected error for unknown variant")
	}
	for _, want := range []string{"IntroZ", "IntroA", "IntroB", "syntactic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// TestFrontendStage runs a pipeline from a Mini-Java file: the
// frontend stage compiles the program and later stages analyze it.
func TestFrontendStage(t *testing.T) {
	src := `
class A {
  Object f;
  static void main() {
    A a = new A();
    Object o = new Object();
    a.f = o;
  }
}`
	path := filepath.Join(t.TempDir(), "frontend-test.mj")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Run(context.Background(), analysis.Request{
		Source: &analysis.Source{MJFile: path},
		Job:    analysis.Job{Spec: "insens"},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prog == nil || res.Prog.Name != path {
		t.Fatalf("frontend did not populate the program: %+v", res.Prog)
	}
	if res.Stages[0].Stage != analysis.StageFrontend {
		t.Errorf("first stage %q, want frontend", res.Stages[0].Stage)
	}
	if res.Main == nil || !res.Main.Complete {
		t.Error("main pass did not complete")
	}

	// Exactly one of Prog and Source is required.
	if _, err := analysis.Run(context.Background(), analysis.Request{Job: analysis.Job{Spec: "insens"}}); err == nil {
		t.Error("expected error with neither Prog nor Source")
	}
}

// TestPrePassBudgetPropagates is the pipeline half of the paper's
// missing-bars behavior: when the context-insensitive pre-pass itself
// exhausts the budget, the pipeline aborts (its metrics would be
// garbage) but the typed error carries the stage and the Result keeps
// the partial First pass.
func TestPrePassBudgetPropagates(t *testing.T) {
	prog := randprog.Generate(4, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroA"},
		Limits: analysis.Limits{Budget: 3},
	})
	var be *analysis.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetExceededError, got %v", err)
	}
	if be.Stage != analysis.StagePrePass {
		t.Errorf("stage %q, want pre-pass", be.Stage)
	}
	if !errors.Is(err, pta.ErrBudgetExceeded) {
		t.Error("BudgetExceededError should unwrap to pta.ErrBudgetExceeded")
	}
	if res == nil || res.First == nil {
		t.Fatal("partial pre-pass result should be kept on the Result")
	}
	if res.First.Complete {
		t.Error("budget-exhausted pre-pass cannot be complete")
	}
	if res.Main != nil {
		t.Error("main pass must not run after a failed pre-pass")
	}
}

// TestInjectedPrePassReused pins Request.First and Request.Metrics: a
// completed insensitive result for the same program, and its metrics,
// become the pipeline's pre-pass and metrics as is, instead of being
// computed again, and the run's document equals an unoffered run's.
// The offer applies at a budget its work just fits, where the main
// pass caps, and with provenance when it recorded it.
func TestInjectedPrePassReused(t *testing.T) {
	prog := randprog.Generate(7, randprog.Default())
	for _, prov := range []bool{false, true} {
		first, err := pta.Analyze(context.Background(), prog, "insens", pta.Options{Budget: -1, Provenance: prov})
		if err != nil {
			t.Fatal(err)
		}
		metrics := introspect.Compute(first)
		req := analysis.Request{
			Prog: prog, Job: analysis.Job{Spec: "2objH-IntroA"},
			Limits: analysis.Limits{Budget: first.Work}, Provenance: prov,
		}
		var be *analysis.BudgetExceededError
		cold, err := analysis.Run(context.Background(), req)
		if !errors.As(err, &be) || be.Stage != analysis.StageMainPass {
			t.Fatalf("want the main pass capped, got %v", err)
		}
		req.First, req.Metrics = first, metrics
		res, err := analysis.Run(context.Background(), req)
		if !errors.As(err, &be) || be.Stage != analysis.StageMainPass {
			t.Errorf("provenance %v: want the main pass capped, got %v", prov, err)
		}
		if res.First != first || res.Metrics != metrics {
			t.Errorf("provenance %v: the offered pre-pass or its metrics were not taken", prov)
		}
		if c, r := scrubWall(t, analysis.NewRunJSON(cold)), scrubWall(t, analysis.NewRunJSON(res)); c != r {
			t.Errorf("provenance %v: a taken offer changed the document:\ncold  %s\ntaken %s", prov, c, r)
		}
	}
}

// TestOfferSolvedPast pins when an offered pre-pass does not apply: the
// run solves its own, with no error from the offer, and its document
// and error equal an unoffered run's.
func TestOfferSolvedPast(t *testing.T) {
	ctx := context.Background()
	prog := randprog.Generate(7, randprog.Default())
	kern, _ := taint.Kernel()
	solve := func(p *ir.Program, spec string, budget int64) *pta.Result {
		r, _ := pta.Analyze(ctx, p, spec, pta.Options{Budget: budget})
		return r
	}
	insens := solve(prog, "insens", -1)
	intro := func(p *ir.Program, budget int64) analysis.Request {
		return analysis.Request{Prog: p, Job: analysis.Job{Spec: "2objH-IntroA"}, Limits: analysis.Limits{Budget: budget}}
	}
	withProv, withTaint := intro(prog, -1), intro(kern, -1)
	withProv.Provenance = true
	withTaint.Job.Taint = taint.KernelSpec()
	for _, c := range []struct {
		name  string
		first *pta.Result
		req   analysis.Request
	}{
		{"incomplete", solve(prog, "insens", 3), intro(prog, -1)},
		{"over the budget", insens, intro(prog, insens.Work-1)},
		{"without provenance", insens, withProv},
		{"another program", solve(randprog.Generate(8, randprog.Default()), "insens", -1), intro(prog, -1)},
		{"taint job", solve(kern, "insens", -1), withTaint},
		{"no pre-pass", insens, analysis.Request{Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: -1}}},
		{"not insensitive", solve(prog, "2objH", -1), intro(prog, -1)},
		{"metrics alone", nil, intro(prog, -1)},
	} {
		cold, cerr := analysis.Run(ctx, c.req)
		c.req.First, c.req.Metrics = c.first, introspect.Compute(insens)
		res, err := analysis.Run(ctx, c.req)
		if res == nil {
			t.Fatalf("%s: no result (err %v)", c.name, err)
		}
		if res.First != nil && res.First == c.first || res.Metrics == c.req.Metrics {
			t.Errorf("%s: the offer was taken", c.name)
		}
		var cbe, be *analysis.BudgetExceededError
		if (cerr == nil) != (err == nil) || errors.As(cerr, &cbe) != errors.As(err, &be) || (be != nil && be.Stage != cbe.Stage) {
			t.Errorf("%s: err %v, unoffered err %v", c.name, err, cerr)
		}
		if cd, d := scrubWall(t, analysis.NewRunJSON(cold)), scrubWall(t, analysis.NewRunJSON(res)); cd != d {
			t.Errorf("%s: the offer changed the document:\nunoffered %s\noffered   %s", c.name, cd, d)
		}
	}
}

// TestMainPassOutcomeReused pins Request.MainPass: asked with the
// refinement the selection chose, a recorded outcome stands in for the
// main-pass solve, complete or capped. The document equals the one a
// solve of the same job produces, wall times aside, and a capped
// outcome returns the same *BudgetExceededError.
func TestMainPassOutcomeReused(t *testing.T) {
	prog := randprog.Generate(7, randprog.Default())
	ctx := context.Background()
	// Thresholds far above every metric refine everything, so the two
	// jobs differ in their thresholds and decisions but not in the
	// refinement they select.
	donor := analysis.Job{Spec: "2objH-IntroA", Thresholds: &analysis.Thresholds{K: 1 << 20, L: 1 << 20, M: 1 << 20}}
	job := analysis.Job{Spec: "2objH-IntroA", Thresholds: &analysis.Thresholds{K: 1 << 21, L: 1 << 21, M: 1 << 21}}
	for _, budget := range []int64{-1, 0} {
		run := func(job analysis.Job, mainPass func(*pta.Refinement) *analysis.MainOutcome) (*analysis.Result, error) {
			return analysis.Run(ctx, analysis.Request{Prog: prog, Job: job, Audit: true, MainPass: mainPass,
				Limits: analysis.Limits{Budget: budget}})
		}
		d, derr := run(donor, nil)
		if budget == 0 { // cap the main pass just past the pre-pass
			budget = d.First.Work
			d, derr = run(donor, nil)
		}
		out := d.MainOutcome()
		if out == nil {
			t.Fatalf("budget %d: donor has no outcome (err %v)", budget, derr)
		}
		cold, cerr := run(job, nil)
		asked := 0
		res, err := run(job, func(ref *pta.Refinement) *analysis.MainOutcome {
			asked++
			if !ref.Heaps.Equal(&d.Selection.Refinement.Heaps) || !ref.Invos.Equal(&d.Selection.Refinement.Invos) ||
				!ref.Methods.Equal(&d.Selection.Refinement.Methods) {
				t.Errorf("budget %d: asked with a refinement the donor did not select", budget)
			}
			return out
		})
		if asked != 1 || res.Main != nil {
			t.Errorf("budget %d: MainPass asked %d times, Main solved %v; want once and not solved", budget, asked, res.Main != nil)
		}
		var cbe, be *analysis.BudgetExceededError
		if capped := budget >= 0; capped != errors.As(cerr, &cbe) || capped != errors.As(err, &be) || (capped &&
			(be.Stage != cbe.Stage || be.Analysis != cbe.Analysis || be.Work != cbe.Work || be.Derivations != cbe.Derivations)) {
			t.Errorf("budget %d: reused err %v, solved err %v", budget, err, cerr)
		}
		if c, r := scrubWall(t, analysis.NewRunJSON(cold)), scrubWall(t, analysis.NewRunJSON(res)); c != r {
			t.Errorf("budget %d: reused document differs from the solved one:\nsolved %s\nreused %s", budget, c, r)
		}
	}
}

// scrubWall renders a document with its wall times zeroed.
func scrubWall(t *testing.T, doc *analysis.RunJSON) string {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`"(wall_ns|elapsed_ms)":\d+`).ReplaceAllString(string(b), `"$1":0`)
}

// TestMainPassBudgetStillReports: a budget-exhausted MAIN pass is a
// reportable outcome — the report stage still runs and the error is
// returned alongside a fully-populated Result.
func TestMainPassBudgetStillReports(t *testing.T) {
	prog := randprog.Generate(4, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: 3},
	})
	var be *analysis.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetExceededError, got %v", err)
	}
	if be.Stage != analysis.StageMainPass {
		t.Errorf("stage %q, want main-pass", be.Stage)
	}
	if res.Main == nil || res.Main.Complete {
		t.Fatal("expected an incomplete main-pass result")
	}
	if res.Precision == nil {
		t.Fatal("report stage should still run after a main-pass budget error")
	}
	if !res.Precision.TimedOut {
		t.Error("precision row should be flagged timed-out")
	}
	last := res.Stages[len(res.Stages)-1]
	if last.Stage != analysis.StageReport {
		t.Errorf("last stage %q, want report", last.Stage)
	}
}

// TestObserverCallbacks checks the Observer contract: StageStart /
// StageFinish bracket every stage in execution order and the finish
// Stats match what lands on the Result.
func TestObserverCallbacks(t *testing.T) {
	prog := randprog.Generate(5, randprog.Default())
	var starts, finishes []string
	var works []int64
	obs := analysis.ObserverFuncs{
		OnStageStart:    func(stage string) { starts = append(starts, stage) },
		OnStageFinish:   func(stage string, st analysis.Stats, err error) { finishes = append(finishes, stage) },
		OnSolveSnapshot: func(stage string, snap pta.Snapshot) { works = append(works, snap.Work) },
	}
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroB"},
		Limits: analysis.Limits{Budget: -1}, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		analysis.StagePrePass, analysis.StageMetrics, analysis.StageSelection,
		analysis.StageMainPass, analysis.StageReport,
	}
	if len(starts) != len(want) || len(finishes) != len(want) {
		t.Fatalf("starts %v finishes %v, want %v", starts, finishes, want)
	}
	for i, w := range want {
		if starts[i] != w || finishes[i] != w {
			t.Errorf("stage %d: start %q finish %q, want %q", i, starts[i], finishes[i], w)
		}
	}
	if len(res.Stages) != len(want) {
		t.Fatalf("Result.Stages has %d entries, want %d", len(res.Stages), len(want))
	}
	for i, st := range res.Stages {
		if st.Stage != want[i] {
			t.Errorf("Result.Stages[%d] = %q, want %q", i, st.Stage, want[i])
		}
	}
	// Tiny programs finish under one snapshot interval; no callbacks is
	// fine, but any that fired must carry increasing work counts.
	for i := 1; i < len(works); i++ {
		if works[i] < works[i-1] {
			t.Errorf("snapshot work counts not monotone: %v", works)
		}
	}
}

// TestStatsJSON pins the JSON encoding of per-stage Stats — the line
// format of cmd/pta -json.
func TestStatsJSON(t *testing.T) {
	prog := randprog.Generate(6, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Stages)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	mainIdx := -1
	for i, st := range res.Stages {
		if st.Stage == analysis.StageMainPass {
			mainIdx = i
		}
	}
	if mainIdx < 0 {
		t.Fatal("no main-pass stage recorded")
	}
	m := decoded[mainIdx]
	for _, key := range []string{"stage", "analysis", "wall_ns", "work", "derivations", "nodes", "edges"} {
		if _, ok := m[key]; !ok {
			t.Errorf("main-pass stats JSON missing key %q: %v", key, m)
		}
	}
	if m["stage"] != "main-pass" || m["analysis"] != "insens" {
		t.Errorf("stage/analysis keys wrong: %v", m)
	}
}

// TestPipelineStageLists pins which stages each pipeline shape runs.
func TestPipelineStageLists(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	cases := []struct {
		req  analysis.Request
		name string
		want []string
	}{
		{analysis.Request{Prog: prog, Job: analysis.Job{Spec: "insens"}}, "insens",
			[]string{analysis.StageMainPass, analysis.StageReport}},
		{analysis.Request{Prog: prog, Job: analysis.Job{Spec: "2objH-IntroA"}}, "2objH-IntroA",
			[]string{analysis.StagePrePass, analysis.StageMetrics, analysis.StageSelection,
				analysis.StageMainPass, analysis.StageReport}},
		{analysis.Request{Prog: prog, Job: analysis.Job{Spec: "2objH-syntactic"}}, "2objH-syntactic",
			[]string{analysis.StageSelection, analysis.StageMainPass, analysis.StageReport}},
		{analysis.Request{Source: &analysis.Source{Bench: "antlr"}, Job: analysis.Job{Spec: "1call"}}, "1call",
			[]string{analysis.StageFrontend, analysis.StageMainPass, analysis.StageReport}},
	}
	for _, c := range cases {
		p, err := analysis.NewPipeline(&c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.req.Job.Spec, err)
		}
		if p.Name != c.name {
			t.Errorf("%s: pipeline name %q", c.req.Job.Spec, p.Name)
		}
		got := p.Stages()
		if len(got) != len(c.want) {
			t.Fatalf("%s: stages %v, want %v", c.req.Job.Spec, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: stages %v, want %v", c.req.Job.Spec, got, c.want)
			}
		}
	}
}

// TestSpecNamingMatchesLegacy pins that pipeline names are exactly the
// legacy analysis-name strings, so tables and goldens are unchanged.
func TestSpecNamingMatchesLegacy(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	for spec, want := range map[string]string{
		"insens": "insens", "2objH": "2objH", "2typeH": "2typeH",
		"2objH-IntroA": "2objH-IntroA", "2callH-IntroB": "2callH-IntroB",
		"2objH-syntactic": "2objH-syntactic",
	} {
		p, err := analysis.NewPipeline(&analysis.Request{Prog: prog, Job: analysis.Job{Spec: spec}})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if p.Name != want {
			t.Errorf("spec %q resolves to pipeline %q, want %q", spec, p.Name, want)
		}
	}
}
