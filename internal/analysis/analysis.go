package analysis

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"introspect/internal/cutshortcut"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/report"
	"introspect/internal/taint"
)

// Stage names, in canonical pipeline order. A single-pass analysis is
// the degenerate pipeline [frontend?] main-pass report; an
// introspective analysis runs all six stages.
const (
	StageFrontend  = "frontend"
	StageTaint     = "taint-inject"
	StagePrePass   = "pre-pass"
	StageMetrics   = "metrics"
	StageSelection = "selection"
	StageMainPass  = "main-pass"
	StageReport    = "report"
)

// Limits bounds each solver pass of a pipeline run.
//
// Wall-clock limits are not a field: pass a context built with
// context.WithTimeout / context.WithDeadline to Run or Execute.
type Limits struct {
	// Budget is the per-pass work-unit budget: 0 means
	// pta.DefaultBudget, negative means unlimited.
	Budget int64
}

func (l Limits) opts() pta.Options { return pta.Options{Budget: l.Budget} }

// Request describes one analysis to run: the program (or how the
// frontend obtains it), the serializable Job naming the analysis and
// its knobs, resource limits, and an optional Observer.
type Request struct {
	// Prog is the program to analyze. If nil, Source must be set and
	// the pipeline's frontend stage produces the program.
	Prog *ir.Program
	// Source is the frontend stage's input (see Source); exactly one
	// of Prog and Source must be set.
	Source *Source

	// Job is the analysis description — the spec string plus optional
	// threshold / syntactic-baseline knobs. Job is plain data and
	// round-trips through JSON, so it is exactly what cmd/ptad
	// receives on the wire and what internal/service hashes into its
	// cache key.
	Job Job
	// First and Metrics offer a context-insensitive pass solved
	// before, and its introspection metrics, to stand in for the
	// pre-pass and metrics stages: a caller keeps what Result.Offer
	// returns and offers it to every later run over the same program.
	// The pre-pass stage takes the offer only when it is a complete
	// insensitive pass over the program the stage would solve (so never
	// for a taint job), its Work fits Limits.Budget, and it recorded
	// provenance if the run records it. Otherwise the stage solves as
	// if no offer were made, so an offer never changes a run's result
	// and never fails it. Pipelines without a pre-pass ignore it.
	First   *pta.Result
	Metrics *introspect.Metrics
	// MainPass, if non-nil, is asked by the main-pass stage of a
	// pipeline with a pre-pass, with the refinement the selection
	// chose, for an outcome it already has. The main pass depends on
	// the job only through that refinement, so a caller that keys
	// outcomes by it (with the program, the rest of the job, the budget
	// and provenance) can skip the solve for thresholds that select
	// alike. A non-nil outcome replaces the solve: Result.Main stays
	// nil, the stage reports the outcome's Stats (a capped one as the
	// same *BudgetExceededError), and the report stage takes its
	// Precision. Nil means solve.
	MainPass func(*pta.Refinement) *MainOutcome

	// Audit enables the introspection decision audit: the selection
	// stage records every refine/demote verdict the heuristic reached
	// (site, metric, observed value, threshold) into
	// Result.Selection.Decisions and fires Observer.Decisions once with
	// the log. Selection itself is unchanged — one Heuristic.Select
	// computes the Refinement with or without a recorder — so Audit
	// never affects analysis results, only what is reported.
	Audit bool

	Limits Limits
	// Provenance enables the solver's derivation-witness recorder on
	// every pass (pta.Options.Provenance): each pass's Result can then
	// reconstruct alloc-to-use witness paths via ExplainHeap,
	// which internal/checkers attaches to diagnostics. Propagation takes
	// the same word-level path either way; recording adds one stamp per
	// word of new bits an edge push produces, so figure runs leave it
	// off.
	Provenance bool
	// Observer receives stage lifecycle, solver-snapshot, and decision
	// callbacks; nil means NopObserver. See Observer for the
	// concurrency contract when one instance is shared across RunAll.
	Observer Observer
	// SnapshotEvery is the minimum solver work-unit interval between
	// Observer.SolveSnapshot callbacks; 0 means
	// pta.DefaultSnapshotEvery. Smaller intervals give denser traces
	// and fresher heartbeats at the cost of one O(nodes) scan per
	// sample; it never affects analysis results.
	SnapshotEvery int64
}

// Result bundles every artifact a pipeline produced. Stages that did
// not run (or were cut short) leave their fields nil, so a Result
// returned alongside an error still carries the partial artifacts —
// a budget-exhausted pre-pass still populates First.
type Result struct {
	Prog     *ir.Program
	Analysis string

	// First is the context-insensitive pre-pass result (nil for
	// single-pass and syntactic pipelines).
	First *pta.Result
	// Metrics are the paper's six cost metrics over First.
	Metrics *introspect.Metrics
	// Selection is the refinement-exclusion choice feeding the main
	// pass (nil for single-pass pipelines).
	Selection *introspect.Selection
	// Main is the main-pass result — for single-pass analyses, the
	// only pass. Nil when Request.MainPass supplied the outcome.
	Main *pta.Result
	// Precision holds the paper's three precision metrics over Main.
	Precision *report.Precision

	// TaintInfo describes the taint injection when the job carried a
	// taint spec (Job.Taint): the synthetic class, heaps, and matched
	// method sets. Prog (and every pass result) then refers to the
	// instrumented program, not the request's input.
	TaintInfo *taint.Injection

	// Stages records per-stage Stats in execution order.
	Stages []Stats
}

// MainOutcome is what a run's document needs from an introspective
// main pass (Request.MainPass): the stage's Stats and the report
// stage's Precision. It holds no pta.Result, so keeping one costs
// bytes.
type MainOutcome struct {
	Stats     Stats
	Precision report.Precision
}

// MainOutcome returns what a later run selecting the same refinement
// needs from this run's main pass, or nil if the report stage did not
// run.
func (r *Result) MainOutcome() *MainOutcome {
	if r.Precision == nil {
		return nil
	}
	for _, st := range r.Stages {
		if st.Stage == StageMainPass {
			return &MainOutcome{Stats: st, Precision: *r.Precision}
		}
	}
	return nil
}

// Offer returns the context-insensitive pass this run can offer later
// runs over the same program, as Request.First and Request.Metrics:
// its pre-pass, or the main pass of an insens run, with the pass's
// metrics, which it computes when the run has none (an insens run).
// It returns nil for a pass that did not complete, and for every taint
// run, whose passes solve an instrumented copy of the program.
func (r *Result) Offer() (*pta.Result, *introspect.Metrics) {
	first, m := r.First, r.Metrics
	if first == nil && r.Main != nil && r.Main.Analysis == "insens" {
		first, m = r.Main, nil
	}
	if first == nil || !first.Complete || r.TaintInfo != nil {
		return nil, nil
	}
	if m == nil {
		m = introspect.Compute(first)
	}
	return first, m
}

// Pipeline is a named sequence of stages over a shared Result. Build
// one with NewPipeline (or implicitly through Run).
type Pipeline struct {
	// Name is the resolved analysis name, e.g. "2objH-IntroB".
	Name string

	req    *Request
	stages []stage
}

type stage struct {
	name string
	run  func(ctx context.Context, p *Pipeline, res *Result) (Stats, error)
}

// Stages returns the pipeline's stage names in execution order.
func (p *Pipeline) Stages() []string {
	out := make([]string, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.name
	}
	return out
}

// Run is the one-call entry point every consumer goes through: build
// the pipeline for req and execute it under ctx.
func Run(ctx context.Context, req Request) (*Result, error) {
	p, err := NewPipeline(&req)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx)
}

// Execute runs the stages in order, notifying the Observer around each
// one and collecting per-stage Stats into the Result.
//
// Error policy: cancellation (ctx) aborts immediately with an error
// wrapping ctx.Err(). A work-budget exhaustion surfaces as a
// *BudgetExceededError naming the stage. If the exhausted pass is the
// main pass, the report stage still runs — a timed-out deep analysis
// is a reportable outcome (the paper's missing bars) — and the error
// is returned alongside the fully-populated Result. An exhausted
// pre-pass aborts (its metrics would be garbage), but the partial
// First result is kept on the Result.
func (p *Pipeline) Execute(ctx context.Context) (*Result, error) {
	res := &Result{Prog: p.req.Prog, Analysis: p.Name}
	obs := p.req.Observer
	if obs == nil {
		obs = NopObserver{}
	}
	var pending error // main-pass budget error carried through report
	for _, sg := range p.stages {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("analysis: stage %s: %w", sg.name, err)
		}
		obs.StageStart(sg.name)
		start := time.Now() //introvet:allow feeds only Stats.Wall, the reported stage time
		st, err := sg.run(ctx, p, res)
		st.Stage = sg.name
		st.Wall = time.Since(start) //introvet:allow feeds only Stats.Wall, the reported stage time
		res.Stages = append(res.Stages, st)
		obs.StageFinish(sg.name, st, err)
		if err != nil {
			var be *BudgetExceededError
			if sg.name == StageMainPass && errors.As(err, &be) {
				pending = err
				continue
			}
			return res, err
		}
	}
	return res, pending
}

// --- stage implementations ---

func frontendStage(src *Source) stage {
	return stage{name: StageFrontend, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		prog, err := src.Load()
		if err != nil {
			return Stats{}, fmt.Errorf("analysis: stage %s: %w", StageFrontend, err)
		}
		res.Prog = prog
		return Stats{Analysis: prog.Name}, nil
	}}
}

// taintStage derives the taint-instrumented program per the Job's
// taint spec and swaps it in as the pipeline's subject: every later
// stage — pre-pass, metrics, selection, main pass — runs over the
// instrumented program, so taint objects take part in the unified
// analysis exactly like real ones (the P/Taint architecture).
func taintStage(spec *taint.Spec) stage {
	return stage{name: StageTaint, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		prog, inj, err := taint.Inject(res.Prog, spec)
		if err != nil {
			return Stats{}, &InvalidTaintError{Err: fmt.Errorf("stage %s: %w", StageTaint, err)}
		}
		res.Prog = prog
		res.TaintInfo = inj
		return Stats{}, nil
	}}
}

// prePassStage solves the context-insensitive pre-pass, or takes the
// offered Request.First (and Metrics) in its place when the offer
// applies. A taken offer keeps the stage in the pipeline, so observers
// still see it start and finish, and its Stats carry the offered
// pass's counters; Wall is the lookup alone.
func prePassStage() stage {
	return stage{name: StagePrePass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		if p.req.takesOffer(res.Prog) {
			res.First, res.Metrics = p.req.First, p.req.Metrics
			return collectStats(res.First), nil
		}
		tab := pta.NewTable()
		pol := pta.NewPolicy(pta.Spec{Flavor: pta.Insensitive}, res.Prog, tab)
		r, st, err := solvePass(ctx, StagePrePass, p.req, res.Prog, pol, nil, tab)
		res.First = r
		return st, err
	}}
}

// takesOffer reports whether the offered Request.First stands in for
// a pre-pass over prog, the program the stage would solve. It does
// when the offer is a complete context-insensitive pass over prog
// itself, so never over a taint job's instrumented copy; its Work fits
// the run's budget, so a fresh solve would have completed too (the
// solver stops only once its work exceeds the budget); and it recorded
// provenance if the run records it, so the run's witnesses stay
// reconstructible.
//
// That is sound because the pre-pass is a pure function of the
// program: the solver is deterministic, takes no input from the job
// but the budget and the provenance flag, and the budget changes only
// whether it completes. So a taken offer equals the pass the run would
// have solved, fact for fact and counter for counter, and every later
// stage sees the same input. Only the stage's Wall differs.
func (req *Request) takesOffer(prog *ir.Program) bool {
	f, budget := req.First, cmp.Or(req.Limits.Budget, pta.DefaultBudget)
	return f != nil && f.Complete && f.Prog == prog && f.Analysis == "insens" &&
		(budget < 0 || f.Work <= budget) && (!req.Provenance || f.ProvenanceEnabled())
}

// metricsStage computes the introspection metrics over the pre-pass,
// unless the pre-pass took an offer that brought them.
func metricsStage() stage {
	return stage{name: StageMetrics, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		if res.Metrics == nil {
			res.Metrics = introspect.Compute(res.First)
		}
		return Stats{}, nil
	}}
}

// selectionStage runs the heuristic over the pre-pass metrics. When
// the request audits, the Selection carries the decision log and the
// Observer receives it.
func selectionStage(h *introspect.Heuristic) stage {
	return stage{name: StageSelection, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		res.Selection = introspect.SelectWith(res.First, res.Metrics, h, p.req.Audit)
		if obs := p.req.Observer; obs != nil && len(res.Selection.Decisions) > 0 {
			obs.Decisions(StageSelection, res.Selection.Decisions)
		}
		return Stats{}, nil
	}}
}

// syntacticStage is the syntactic baseline's selection: exclusions
// from syntactic features alone, with no pre-pass and so no Figure-4
// statistics.
func syntacticStage(opts introspect.SyntacticOptions) stage {
	return stage{name: StageSelection, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		res.Selection = &introspect.Selection{
			Refinement: introspect.SyntacticExclusions(res.Prog, opts),
			Heuristic:  "syntactic",
		}
		return Stats{}, nil
	}}
}

// mainPassPlain solves a single-pass analysis. The cut-shortcut spec
// is the only one that edits the constraint graph: its policy builds
// no contexts, and the edit set cutshortcut.Detect finds goes with it.
func mainPassPlain(spec pta.Spec) stage {
	return stage{name: StageMainPass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		var edits *pta.Edits
		if spec.Flavor == pta.CutShortcut {
			edits = cutshortcut.Detect(res.Prog)
		}
		tab := pta.NewTable()
		r, st, err := solvePass(ctx, StageMainPass, p.req, res.Prog, pta.NewPolicy(spec, res.Prog, tab), edits, tab)
		res.Main = r
		res.Analysis = r.Analysis
		return st, err
	}}
}

// mainPassIntrospective solves the refined second pass, first asking
// reuse (Request.MainPass, nil in the syntactic baseline) for a
// recorded outcome of the same refinement.
func mainPassIntrospective(deep pta.Spec, reuse func(*pta.Refinement) *MainOutcome) stage {
	return stage{name: StageMainPass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		// Per the paper, the second pass runs identical analysis code;
		// only the (complement-form) SITETOREFINE / OBJECTTOREFINE
		// inputs — res.Selection.Refinement — differ.
		if reuse != nil {
			if out := reuse(res.Selection.Refinement); out != nil {
				return reuseMainPass(out, res)
			}
		}
		tab := pta.NewTable()
		pol := pta.NewIntrospective(
			pta.NewPolicy(deep, res.Prog, tab),
			pta.NewPolicy(pta.Spec{Flavor: pta.Insensitive}, res.Prog, tab),
			res.Selection.Refinement, p.Name)
		r, st, err := solvePass(ctx, StageMainPass, p.req, res.Prog, pol, nil, tab)
		res.Main = r
		return st, err
	}}
}

// reuseMainPass stands a recorded outcome in for the main-pass solve:
// the same Stats, the same error for a capped pass, and the Precision
// the report stage would measure. As with a taken pre-pass offer, the
// stage's Wall is the lookup; Precision.ElapsedMS stays the solve's.
func reuseMainPass(out *MainOutcome, res *Result) (Stats, error) {
	pr := out.Precision
	res.Precision = &pr
	st := out.Stats
	if !st.BudgetExceeded {
		return st, nil
	}
	return st, &BudgetExceededError{
		Stage:       StageMainPass,
		Analysis:    st.Analysis,
		Work:        st.Work,
		Derivations: st.Derivations,
		Elapsed:     time.Duration(pr.ElapsedMS) * time.Millisecond,
	}
}

func reportStage() stage {
	return stage{name: StageReport, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		if res.Precision == nil { // else a reused main pass brought it
			pr := report.Measure(res.Main, res.TaintInfo)
			res.Precision = &pr
		}
		return Stats{}, nil
	}}
}

// solvePass runs one solver pass with the request's limits and
// observer wiring, and converts solver errors into the pipeline's
// typed errors.
func solvePass(ctx context.Context, stageName string, req *Request, prog *ir.Program, pol pta.Policy, edits *pta.Edits, tab *pta.Table) (*pta.Result, Stats, error) {
	opts := req.Limits.opts()
	opts.Provenance = req.Provenance
	if obs := req.Observer; obs != nil {
		opts.Snapshot = func(sn pta.Snapshot) { obs.SolveSnapshot(stageName, sn) }
		opts.SnapshotEvery = req.SnapshotEvery
	}
	r, err := pta.Solve(ctx, prog, pol, edits, tab, opts)
	st := collectStats(r)
	if err != nil {
		if errors.Is(err, pta.ErrBudgetExceeded) {
			st.BudgetExceeded = true
			err = &BudgetExceededError{
				Stage:       stageName,
				Analysis:    r.Analysis,
				Work:        r.Work,
				Derivations: r.Derivations,
				Elapsed:     r.Elapsed,
			}
		} else {
			st.Cancelled = true
			err = fmt.Errorf("analysis: stage %s: %w", stageName, err)
		}
	}
	return r, st, err
}
