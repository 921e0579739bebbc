package analysis

import (
	"introspect/internal/taint"
)

// Capabilities flags what request knobs a registered spec supports —
// what /v1/specs advertises so clients stop discovering
// InvalidTaintError by probing for 400s. The flags are computed by
// resolving probe Jobs through the registry itself, so they cannot
// drift from what Validate actually accepts.
type Capabilities struct {
	// Provenance: the spec can record derivation witnesses.
	Provenance bool `json:"provenance"`
	// Taint: the spec accepts a Job.Taint specification.
	Taint bool `json:"taint"`
	// Introspective: the spec accepts a "-IntroA"/"-IntroB"/variant
	// suffix. False for analyses with no contexts to refine (insens,
	// cs).
	Introspective bool `json:"introspective"`
}

// capabilityProbeTaint is a minimal well-formed taint spec; only its
// validity matters.
var capabilityProbeTaint = &taint.Spec{Sources: []string{"Src.get"}, Sinks: []string{"Snk.put"}}

// SpecCapabilities computes the capability flags of one spec by
// resolving probe Jobs. The spec itself must be registered; the flags
// of an unresolvable spec are all false.
func SpecCapabilities(spec string) Capabilities {
	if (Job{Spec: spec}).Validate() != nil {
		return Capabilities{}
	}
	return Capabilities{
		// Provenance is a pipeline-level recorder, available wherever
		// the spec itself resolves.
		Provenance:    true,
		Taint:         (Job{Spec: spec, Taint: capabilityProbeTaint}).Validate() == nil,
		Introspective: (Job{Spec: spec + "-IntroA"}).Validate() == nil,
	}
}
