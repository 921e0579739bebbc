package analysis_test

import (
	"testing"

	"introspect/internal/analysis"
)

// TestSpecCapabilities checks the probed capability flags against what
// the Job validator actually accepts: the two must agree because the
// flags ARE validator probes. Every registered spec supports
// provenance and taint; only specs with introspective variants are
// Introspective (insens has no pre-pass to introspect, cs's refinement
// set is empty).
func TestSpecCapabilities(t *testing.T) {
	for _, spec := range analysis.RegisteredSpecs() {
		caps := analysis.SpecCapabilities(spec)
		if !caps.Provenance || !caps.Taint {
			t.Errorf("%s: capabilities = %+v, want provenance/taint both true", spec, caps)
		}
		wantIntro := spec != "insens" && spec != "cs"
		if caps.Introspective != wantIntro {
			t.Errorf("%s: introspective = %v, want %v", spec, caps.Introspective, wantIntro)
		}
	}

	// Unknown specs have no capabilities at all.
	if caps := analysis.SpecCapabilities("not-a-spec"); caps != (analysis.Capabilities{}) {
		t.Errorf("unknown spec: capabilities = %+v, want zero", caps)
	}
}
