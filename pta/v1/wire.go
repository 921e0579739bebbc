// Package ptav1 is the versioned wire surface of the analysis tooling:
// every JSON document that crosses a process boundary — cmd/pta -json,
// cmd/ptalint -format json, and each endpoint of cmd/ptad's HTTP API
// (analyze, batch, stream events, specs, flights) — is defined or
// aliased here, under one schema tag. Clients import this package and
// nothing else; the internal packages stay free to refactor behind it.
//
// The run record itself (RunJSON) lives in internal/analysis, where
// the pipeline produces it; this package re-exports it so the one
// authoritative shape has a public name. Types that exist only on the
// wire — the error envelope, the batch and stream shapes, the specs
// and flights documents — are defined here and nowhere else.
//
// # Error envelope
//
// Every error response, on every endpoint, is one ErrorBody:
//
//	{"schema":"pta/v1","code":"bad_request","error":"..."}
//
// The code maps one-to-one onto the HTTP status (Error.HTTPStatus);
// clients switch on the code, never on message text.
package ptav1

import (
	"fmt"
	"net/http"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/introspect"
	"introspect/internal/pta"
	"introspect/internal/report"
)

// Schema is the version tag carried by every pta/v1 document.
// Producers bump it only on breaking shape changes.
const Schema = analysis.SchemaV1

// Re-exported document types: one authoritative definition each, named
// publicly here. Field order is part of the format (Go serializes
// struct fields in declaration order); golden tests pin it.
type (
	// RunJSON is the record of one analysis run — the response body of
	// POST /v1/analyze and the document cmd/pta -json emits.
	RunJSON = analysis.RunJSON
	// Stats is one pipeline stage's cost/outcome record.
	Stats = analysis.Stats
	// Precision is the paper's three precision metrics.
	Precision = report.Precision
	// Job names an analysis and its knobs; its canonical JSON encoding
	// is the service's cache identity.
	Job = analysis.Job
	// Thresholds carries the introspective heuristics' constants.
	Thresholds = analysis.Thresholds
	// Snapshot is a point-in-time picture of a running solve.
	Snapshot = pta.Snapshot
	// Capabilities flags what request knobs a spec supports.
	Capabilities = analysis.Capabilities
	// Decision is one refine/demote verdict of an introspection
	// heuristic — the unit of the decision audit log.
	Decision = introspect.Decision
)

// Code classifies a service failure. Codes are part of the wire
// contract: they appear verbatim in error envelopes and map one-to-one
// onto HTTP status codes.
type Code string

const (
	// CodeBadRequest: the request cannot resolve to an analysis —
	// malformed JSON, an unknown spec or variant, a source that does not
	// parse, an oversized body.
	CodeBadRequest Code = "bad_request"
	// CodeOverloaded: the admission controller rejected the request
	// because every worker was busy and the queue was full. The request
	// did no work; retrying later is safe and expected.
	CodeOverloaded Code = "overloaded"
	// CodeDeadline: the request's deadline expired — while queued,
	// while deduplicated behind an identical in-flight solve, or while
	// its own solve was running.
	CodeDeadline Code = "deadline"
	// CodeInternal: the pipeline failed in a way the service cannot
	// attribute to the request.
	CodeInternal Code = "internal"
)

// Error is the typed failure: a machine-readable Code plus a
// human-readable message. It is the Go error the service returns;
// ErrorBody is its JSON rendering.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// HTTPStatus maps the code onto its HTTP status.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest:
		return http.StatusBadRequest // 400
	case CodeOverloaded:
		return http.StatusTooManyRequests // 429
	case CodeDeadline:
		return http.StatusGatewayTimeout // 504
	default:
		return http.StatusInternalServerError // 500
	}
}

// Errorf builds an *Error, printf-style.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorBody is the single error envelope every endpoint writes: the
// schema marker (so clients can switch on one field), the typed code,
// and the human-readable message.
type ErrorBody struct {
	Schema string `json:"schema"`
	Code   Code   `json:"code"`
	Error  string `json:"error"`
}

// NewErrorBody wraps a typed error as its wire envelope.
func NewErrorBody(e *Error) ErrorBody {
	return ErrorBody{Schema: Schema, Code: e.Code, Error: e.Message}
}

// AnalyzeRequest is the wire shape of one analysis request — what
// POST /v1/analyze decodes (from a JSON body or from query parameters;
// see DecodeAnalyze). Everything in it is plain data; the program
// travels as source text.
type AnalyzeRequest struct {
	// Lang is the source language: "mj" (Mini-Java) or "ir" (the
	// textual IR). Empty means "mj".
	Lang string `json:"lang,omitempty"`
	// Name labels the program in responses; defaults to "program".
	Name string `json:"name,omitempty"`
	// Source is the program text.
	Source string `json:"source"`
	// Job names the analysis and its knobs (see Job).
	Job Job `json:"job"`
	// Budget is the per-pass work budget: 0 means the service default,
	// negative means unlimited (the deadline still applies).
	Budget int64 `json:"budget,omitempty"`
	// DeadlineMS bounds the request's total time in milliseconds,
	// queueing included: 0 means the service default; values above the
	// service maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Provenance enables derivation-witness recording, which
	// diagnostics need for their witness paths. It costs some extra
	// solve time and memory and never changes the result.
	Provenance bool `json:"provenance,omitempty"`
	// Stream upgrades the response to a chunked NDJSON event stream
	// (StreamEvent per line): progress snapshots while the solve runs,
	// then one terminal result or error event. GET requests stream by
	// default.
	Stream bool `json:"stream,omitempty"`
	// Decisions asks for the introspection decision audit on the
	// response: RunJSON.Decisions carries the selection heuristic's
	// refine/demote log (and streams emit one "decisions" event).
	// Purely presentational — not part of the cache identity — so
	// cached results serve audited responses too.
	Decisions bool `json:"decisions,omitempty"`
	// Trace asks for a per-request trace: RunJSON.Trace carries the
	// Chrome trace-event document of this request's handling, stitched
	// across the peer hop when the request was forwarded. Like
	// Decisions it is presentational; unlike cached solve artifacts the
	// trace always describes THIS request (a cache hit traces the
	// lookup, not the original solve).
	Trace bool `json:"trace,omitempty"`
}

// BatchRequest is POST /v1/batch's body: one program, many jobs. The
// service runs the frontend once, shares the insensitive pre-pass
// across the jobs that need one, and fans the jobs through its worker
// pool; per-job failures are per-item, not per-batch.
type BatchRequest struct {
	Lang   string `json:"lang,omitempty"`
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// Jobs are analyzed in order of appearance; Results matches the
	// order. At most MaxBatchJobs per request.
	Jobs []Job `json:"jobs"`
	// Budget, DeadlineMS, and Provenance apply to every job in the
	// batch, with the same semantics as AnalyzeRequest's fields.
	Budget     int64 `json:"budget,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	Provenance bool  `json:"provenance,omitempty"`
}

// BatchItem is one job's outcome within a BatchResponse: either Result
// is set, or Code and Error are.
type BatchItem struct {
	Spec   string   `json:"spec"`
	Result *RunJSON `json:"result,omitempty"`
	Code   Code     `json:"code,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// BatchResponse is POST /v1/batch's body: per-job outcomes in request
// order.
type BatchResponse struct {
	Schema  string      `json:"schema"`
	Program string      `json:"program"`
	Jobs    int         `json:"jobs"`
	Results []BatchItem `json:"results"`
}

// Stream event kinds, in the order a stream can emit them: any number
// of "stage" and "snapshot" events, then exactly one "result" or
// "error" terminal event.
const (
	// EventStage: a pipeline stage is starting; Stage names it.
	EventStage = "stage"
	// EventSnapshot: a sampled picture of the running solve; Stage and
	// Snapshot are set.
	EventSnapshot = "snapshot"
	// EventResult: the terminal success event; Result carries the full
	// run document (cache label included).
	EventResult = "result"
	// EventError: the terminal failure event; Code and Error are set
	// with ErrorBody semantics.
	EventError = "error"
	// EventDecisions: the introspection decision audit, emitted once
	// after the selection stage when the request asked for decisions;
	// Stage and Decisions are set.
	EventDecisions = "decisions"
)

// StreamEvent is one line of a streaming /v1/analyze response
// (Content-Type application/x-ndjson, one JSON object per line).
type StreamEvent struct {
	Schema    string                `json:"schema"`
	Event     string                `json:"event"`
	Stage     string                `json:"stage,omitempty"`
	Snapshot  *Snapshot             `json:"snapshot,omitempty"`
	Decisions []introspect.Decision `json:"decisions,omitempty"`
	Result    *RunJSON              `json:"result,omitempty"`
	Code      Code                  `json:"code,omitempty"`
	Error     string                `json:"error,omitempty"`
}

// SpecInfo is one analysis spec in the /v1/specs listing: its name
// plus the capability flags clients would otherwise discover by
// probing for 400s.
type SpecInfo struct {
	Name string `json:"name"`
	Capabilities
}

// SpecsDoc is GET /v1/specs's body: the registered analysis specs
// (sorted, with capabilities) and the introspective variant suffixes
// that can be appended to context-sensitive ones.
type SpecsDoc struct {
	Schema   string     `json:"schema"`
	Specs    []SpecInfo `json:"specs"`
	Variants []string   `json:"variants"`
}

// FlightInfo is one in-flight request as reported by GET /v1/flights:
// identity, age, current stage, and the latest sampled solver
// snapshot. A request whose snapshot fields are zero has not yet
// reached its first sampling interval (or is still queued/parsing).
type FlightInfo struct {
	ID         uint64 `json:"id"`
	Program    string `json:"program"`
	Spec       string `json:"spec"`
	Provenance bool   `json:"provenance,omitempty"`
	// AgeMS is milliseconds since the solve was admitted (queue time
	// included).
	AgeMS int64 `json:"age_ms"`
	// Stage is the request's current position: "queued", "parse", or a
	// pipeline stage name ("pre-pass", "main-pass", ...).
	Stage string `json:"stage"`
	// Snapshot is the latest sampled solver state, if any arrived;
	// SnapshotAgeMS says how stale it is. A long-running flight whose
	// snapshot age keeps growing is stuck outside the solver; one
	// whose work grows without the stage advancing is the paper's
	// context explosion, live.
	Snapshot      *Snapshot `json:"snapshot,omitempty"`
	SnapshotAgeMS int64     `json:"snapshot_age_ms,omitempty"`
}

// FlightsDoc is GET /v1/flights's body.
type FlightsDoc struct {
	Schema  string       `json:"schema"`
	Flights []FlightInfo `json:"flights"`
}

// LintDoc is cmd/ptalint's -format json document: the shared run
// record with the checker diagnostics appended.
type LintDoc struct {
	*RunJSON
	Diagnostics []checkers.Diagnostic `json:"diagnostics"`
}
