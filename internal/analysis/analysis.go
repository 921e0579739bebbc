package analysis

import (
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
	// First, if non-nil, is a completed context-insensitive result to
	// inject as the introspective pipeline's pre-pass instead of
	// solving one. The pre-pass is a pure function of the program, so
	// callers running many introspective variants of one benchmark
	// (the figure fleets) share a single insensitive solve this way
	// without changing any output. Only valid for pipelines that have
	// a pre-pass stage; the result must be complete and for the same
	// program the request resolves to.
	First *pta.Result

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
	// only pass.
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

func prePassStage() stage {
	return stage{name: StagePrePass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		tab := pta.NewTable()
		pol := pta.NewPolicy(pta.Spec{Flavor: pta.Insensitive}, res.Prog, tab)
		r, st, err := solvePass(ctx, StagePrePass, p.req, res.Prog, pol, tab)
		res.First = r
		return st, err
	}}
}

// injectPrePassStage replaces the pre-pass solve with a result the
// caller already has. It keeps the stage in the pipeline (observers
// still see it start and finish) but does no solver work — its Stats
// carry the injected pass's counters; Wall reflects only the injection
// itself.
func injectPrePassStage(first *pta.Result) stage {
	return stage{name: StagePrePass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		if !first.Complete {
			return Stats{}, fmt.Errorf("analysis: stage %s: injected pre-pass result is incomplete", StagePrePass)
		}
		if first.Prog != res.Prog {
			return Stats{}, fmt.Errorf("analysis: stage %s: injected pre-pass result is for a different program", StagePrePass)
		}
		res.First = first
		return collectStats(first), nil
	}}
}

func metricsStage() stage {
	return stage{name: StageMetrics, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		res.Metrics = introspect.Compute(res.First)
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

func mainPassPlain(spec pta.Spec) stage {
	return stage{name: StageMainPass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		tab := pta.NewTable()
		strat := strategyFor(spec, res.Prog, tab)
		r, st, err := solvePass(ctx, StageMainPass, p.req, res.Prog, strat, tab)
		res.Main = r
		res.Analysis = r.Analysis
		return st, err
	}}
}

// strategyFor builds the solve strategy for a resolved spec: the
// cut-shortcut family gets its detected edit set attached, every pure
// context family is the policy alone. This is the only place the
// analysis layer distinguishes graph-editing families — new ones plug
// in here and nowhere else.
func strategyFor(spec pta.Spec, prog *ir.Program, tab *pta.Table) pta.Strategy {
	if spec.Flavor == pta.CutShortcut {
		return cutshortcut.New(prog, tab)
	}
	return pta.NewPolicy(spec, prog, tab)
}

func mainPassIntrospective(deep pta.Spec) stage {
	return stage{name: StageMainPass, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		// Per the paper, the second pass runs identical analysis code;
		// only the (complement-form) SITETOREFINE / OBJECTTOREFINE
		// inputs — res.Selection.Refinement — differ.
		tab := pta.NewTable()
		pol := pta.NewIntrospective(
			pta.NewPolicy(deep, res.Prog, tab),
			pta.NewPolicy(pta.Spec{Flavor: pta.Insensitive}, res.Prog, tab),
			res.Selection.Refinement, p.Name)
		r, st, err := solvePass(ctx, StageMainPass, p.req, res.Prog, pol, tab)
		res.Main = r
		return st, err
	}}
}

func reportStage() stage {
	return stage{name: StageReport, run: func(ctx context.Context, p *Pipeline, res *Result) (Stats, error) {
		pr := report.Measure(res.Main)
		res.Precision = &pr
		return Stats{}, nil
	}}
}

// solvePass runs one solver pass with the request's limits and
// observer wiring, and converts solver errors into the pipeline's
// typed errors.
func solvePass(ctx context.Context, stageName string, req *Request, prog *ir.Program, strat pta.Strategy, tab *pta.Table) (*pta.Result, Stats, error) {
	opts := req.Limits.opts()
	opts.Provenance = req.Provenance
	if obs := req.Observer; obs != nil {
		opts.Snapshot = func(sn pta.Snapshot) { obs.SolveSnapshot(stageName, sn) }
		opts.SnapshotEvery = req.SnapshotEvery
	}
	r, err := pta.Solve(ctx, prog, strat, tab, opts)
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
