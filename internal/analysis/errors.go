package analysis

import (
	"fmt"
	"time"

	"introspect/internal/pta"
)

// BudgetExceededError reports that one solver pass of a pipeline was
// stopped by its deterministic work budget — the typed replacement for
// the old TimedOut flag. It names the stage and carries the pass's
// cost counters, so "did not terminate" rows (the paper's Figure 1
// timeouts) can be rendered from the error alone.
//
// The pipeline Result returned alongside this error still holds the
// partial artifacts: a budget-exhausted pre-pass populates
// Result.First, a budget-exhausted main pass populates Result.Main and
// Result.Precision.
type BudgetExceededError struct {
	// Stage is the pipeline stage that exhausted its budget
	// (StagePrePass or StageMainPass).
	Stage string
	// Analysis is the pass's analysis name (e.g. "insens" for the
	// pre-pass, "2objH-IntroB" for a main pass).
	Analysis string
	// Work is the abstract work-unit count when the pass stopped.
	Work int64
	// Derivations is the number of points-to facts established.
	Derivations int64
	// Elapsed is the pass's wall-clock time.
	Elapsed time.Duration
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("analysis: stage %s (%s): work budget exceeded after %d work units (%d derivations, %v)",
		e.Stage, e.Analysis, e.Work, e.Derivations, e.Elapsed.Round(time.Millisecond))
}

// Unwrap ties the typed error to the solver's sentinel, so
// errors.Is(err, pta.ErrBudgetExceeded) matches.
func (e *BudgetExceededError) Unwrap() error { return pta.ErrBudgetExceeded }

// InvalidTaintError reports a malformed Job.Taint spec (no sources, no
// sinks, blank or duplicate patterns, a pattern playing conflicting
// roles). It is raised at validation time (Job.Validate / NewPipeline),
// so servers map it to HTTP 400 before admitting the job to a worker.
type InvalidTaintError struct {
	// Err is the underlying taint.Spec validation error.
	Err error
}

func (e *InvalidTaintError) Error() string {
	return fmt.Sprintf("analysis: invalid Job.Taint: %v", e.Err)
}

// Unwrap exposes the underlying validation error.
func (e *InvalidTaintError) Unwrap() error { return e.Err }
