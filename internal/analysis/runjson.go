package analysis

import (
	"introspect/internal/introspect"
	"introspect/internal/obs"
	"introspect/internal/report"
)

// SchemaV1 is the version tag of the RunJSON document. Consumers
// should reject documents with an unknown schema string; producers
// bump it only on breaking shape changes.
const SchemaV1 = "pta/v1"

// RunJSON is the versioned JSON document for one analysis run — the
// single output schema shared by cmd/pta -json, cmd/ptalint -format
// json, and cmd/ptad's POST /v1/analyze, so scripts consume one shape
// regardless of which tool produced it. Field order is part of the
// format (Go serializes struct fields in declaration order); golden
// tests pin it.
type RunJSON struct {
	// Schema is always SchemaV1.
	Schema string `json:"schema"`
	// Program is the analyzed program's name.
	Program string `json:"program"`
	// Analysis is the resolved analysis name, e.g. "2objH-IntroA".
	Analysis string `json:"analysis"`
	// Complete reports whether the main pass reached fixpoint; false
	// is the paper's TIMEOUT outcome, still a reportable document.
	Complete bool `json:"complete"`
	// Cache is set by services only: "hit" (served from the result
	// cache), "miss" (this request triggered the solve), or "dedup"
	// (coalesced onto a concurrent identical solve). CLIs leave it
	// empty and the field is omitted.
	Cache string `json:"cache,omitempty"`
	// Stages records per-stage Stats in execution order.
	Stages []Stats `json:"stages"`
	// Precision holds the paper's three precision metrics, when the
	// report stage ran.
	Precision *report.Precision `json:"precision,omitempty"`
	// Decisions is the introspection decision audit (Request.Audit):
	// one record per observed refine/demote verdict of the selection
	// heuristic, in deterministic clause-then-element order. Omitted
	// when auditing is off or the pipeline has no selection stage.
	Decisions []introspect.Decision `json:"decisions,omitempty"`
	// Trace, set by services on request (?trace=1), is the Chrome
	// trace-event document of the request that returned this run.
	// Omitted otherwise; never part of the cached document.
	Trace *obs.ChromeDoc `json:"trace,omitempty"`
}

// NewRunJSON renders a pipeline Result as the versioned document.
func NewRunJSON(res *Result) *RunJSON {
	out := &RunJSON{
		Schema:    SchemaV1,
		Analysis:  res.Analysis,
		Stages:    res.Stages,
		Precision: res.Precision,
	}
	if res.Prog != nil {
		out.Program = res.Prog.Name
	}
	if res.Main != nil {
		out.Complete = res.Main.Complete
	}
	if res.Selection != nil {
		out.Decisions = res.Selection.Decisions
	}
	return out
}
