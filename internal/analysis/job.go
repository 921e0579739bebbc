package analysis

import (
	"encoding/json"
	"fmt"

	"introspect/internal/introspect"
	"introspect/internal/taint"
)

// Job is the serializable half of a Request: it describes WHAT
// analysis to run, with every knob expressible as plain data. A Job
// round-trips through JSON unchanged, which makes it the wire type of
// cmd/ptad's POST /v1/analyze and the input half of internal/service's
// content-addressed cache key — two Jobs with equal canonical
// encodings request the same computation.
//
// Job replaces the old Request.Spec / Request.Heuristic /
// Request.Syntactic triple, whose interface-valued fields could not
// cross a process boundary.
type Job struct {
	// Spec names the analysis: "insens", "2objH", "1call", ... for a
	// single pass, or "<deep>-<variant>" ("2objH-IntroA",
	// "2callH-IntroB", "2objH-syntactic") for an introspective
	// pipeline. Variants lists the variant suffixes.
	Spec string `json:"spec"`

	// Thresholds, if non-nil, overrides the heuristic constants of the
	// introspective variant named in Spec: IntroA reads K/L/M, IntroB
	// reads P/Q, zero fields keep the paper's defaults. Requires a
	// variant suffix in Spec.
	Thresholds *Thresholds `json:"thresholds,omitempty"`

	// Syntactic, if non-nil, requests the traditional
	// syntactic-exclusions baseline (no pre-pass) with these options;
	// Spec must then name the deep analysis with no variant suffix.
	// (The suffix spelling "2objH-syntactic" keeps selecting the
	// default options.)
	Syntactic *introspect.SyntacticOptions `json:"syntactic,omitempty"`

	// Taint, if non-nil, runs the job as a unified taint analysis
	// (internal/taint): the pipeline gains a taint-inject stage that
	// derives a taint-instrumented copy of the program per this spec,
	// and the solve — under whatever context policy Spec names — then
	// propagates taint objects like any other heap objects. The spec is
	// plain data and part of the canonical encoding: two jobs differing
	// only in taint configuration are different cache entries, because
	// they analyze different (derived) programs. Malformed specs are
	// rejected by Validate with an *InvalidTaintError. The pre-pass of
	// a taint job never takes an offered Request.First, which was
	// solved over another program than the instrumented copy.
	Taint *taint.Spec `json:"taint,omitempty"`
}

// Canonical returns the Job's canonical JSON encoding, the form
// internal/service hashes into its cache key. Go's encoding/json
// serializes struct fields in declaration order, so equal Jobs yield
// equal bytes.
func (j Job) Canonical() ([]byte, error) { return json.Marshal(j) }

// Thresholds carries the introspective heuristics' threshold
// constants in serializable form — the paper's precision/scalability
// "dial" as plain data. Zero values mean "paper default", so the empty
// struct is equivalent to a nil *Thresholds.
type Thresholds struct {
	// K, L, M are Heuristic A's constants: exclude allocation sites
	// with pointed-by-vars > K, call sites with in-flow > L, methods
	// with max var-field points-to > M. Defaults: 100, 100, 200.
	K int `json:"k,omitempty"`
	L int `json:"l,omitempty"`
	M int `json:"m,omitempty"`
	// P, Q are Heuristic B's constants: exclude methods with total
	// points-to volume > P, allocation sites with total field
	// points-to × pointed-by-vars > Q. Defaults: 10000, 10000.
	P int `json:"p,omitempty"`
	Q int `json:"q,omitempty"`
}

// heuristicA materializes Heuristic A from t, nil or zero fields
// defaulting to the paper's constants.
func (t *Thresholds) heuristicA() *introspect.Heuristic {
	var o Thresholds
	if t != nil {
		o = *t
	}
	return introspect.HeuristicA(or(o.K, introspect.DefaultK), or(o.L, introspect.DefaultL), or(o.M, introspect.DefaultM))
}

// heuristicB materializes Heuristic B from t, nil or zero fields
// defaulting to the paper's constants.
func (t *Thresholds) heuristicB() *introspect.Heuristic {
	var o Thresholds
	if t != nil {
		o = *t
	}
	return introspect.HeuristicB(or(o.P, introspect.DefaultP), or(o.Q, introspect.DefaultQ))
}

// or returns v if it is positive, def otherwise.
func or(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// NeedsPrePass reports whether the job's pipeline includes a
// context-insensitive pre-pass stage, the one stage an offered
// Request.First can stand in for. False for single-pass jobs,
// syntactic baselines, and jobs that do not resolve at all.
func (j Job) NeedsPrePass() bool {
	_, h, _, err := resolveJob(j)
	return err == nil && h != nil
}

// Validate reports whether the Job resolves to a pipeline, without
// needing a program. It is the request-validation entry point for
// servers that want to reject malformed jobs before admitting them to
// a worker.
func (j Job) Validate() error {
	if j.Spec == "" {
		return fmt.Errorf("analysis: Job.Spec is required")
	}
	_, _, _, err := resolveJob(j)
	return err
}
