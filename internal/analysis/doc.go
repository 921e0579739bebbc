// Package analysis is the instrumented pipeline layer every consumer
// of the points-to engine goes through: one API boundary between
// "what to analyze" (a Request) and "how it runs" (a staged,
// cancellable, observable Pipeline).
//
// # Stage model
//
// A Pipeline executes named stages over a shared Result:
//
//	frontend    resolve a Source (suite benchmark, .mj or .ir file)
//	            to an ir.Program; skipped when the Request supplies
//	            the program directly
//	pre-pass    the context-insensitive solver pass whose results feed
//	            the introspection metrics
//	metrics     the paper's six cost metrics over the pre-pass
//	selection   Heuristic A or B (or, in the syntactic baseline, the
//	            traditional syntactic exclusions) chooses the
//	            refinement-exclusion sets
//	main-pass   the solver pass that produces the reported result —
//	            introspective (deep context everywhere except the
//	            selection) or plain
//	report      precision measurement (report.Measure)
//
// A single-pass analysis ("insens", "2objH", ...) is the degenerate
// pipeline frontend? -> main-pass -> report. An introspective analysis
// ("2objH-IntroA") runs all stages; the syntactic baseline
// ("2objH-syntactic") skips pre-pass and metrics, which is exactly the
// paper's point about syntactic heuristics. Spec strings are resolved
// in one place (Variants lists the suffixes), so CLIs do not switch on
// analysis names.
//
// # Jobs
//
// What to run is a Job: a spec string plus optional serializable
// overrides (threshold constants for Heuristic A/B, or explicit
// syntactic-exclusion options). A Job round-trips through JSON, which
// is what makes the analysis service (cmd/ptad) possible — the Job's
// canonical encoding is part of the content-addressed result-cache
// key, so two requests resolve to the same cached result exactly when
// they would run the same analysis. Every pipeline is expressible as
// a Job, so in-process callers and the wire reach the same analyses.
//
// # Cancellation and budgets
//
// Execute threads its context into every solver pass; the worklist
// loop polls it every few hundred iterations, so cancellation and
// context deadlines stop a run promptly, returning an error wrapping
// ctx.Err(). The deterministic work budget (Limits.Budget) surfaces as
// a *BudgetExceededError naming the exhausted stage; the Result
// returned alongside it still carries the partial artifacts (a
// budget-exhausted pre-pass populates Result.First, an exhausted main
// pass still gets its report stage — the paper's "did not terminate"
// rows render from exactly that).
//
// # Sharing passes
//
// A caller running many jobs over one program can offer each run a
// context-insensitive pass solved before (Request.First, kept from
// Result.Offer) and main-pass outcomes recorded before
// (Request.MainPass). This package alone decides whether an offer
// applies; one that does not is solved past, so an offer never changes
// a result.
//
// # Observability
//
// Every stage produces a Stats record (wall time, derivations,
// propagations, constraint-graph size, call-graph edges, contexts
// created, peak points-to set size, ...) collected on the Result; an
// optional Observer receives stage start/finish callbacks and sampled
// solver snapshots. Stats marshals to stable JSON (cmd/pta -json).
package analysis
