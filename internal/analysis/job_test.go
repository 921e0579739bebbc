package analysis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/randprog"
)

// TestJobRoundTrip pins the wire contract: a Job survives
// JSON-encoding unchanged, and equal Jobs produce equal canonical
// bytes (the property internal/service's cache key relies on).
func TestJobRoundTrip(t *testing.T) {
	so := introspect.DefaultSyntactic()
	jobs := []analysis.Job{
		{Spec: "insens"},
		{Spec: "2objH-IntroA"},
		{Spec: "2objH-IntroA", Thresholds: &analysis.Thresholds{K: 50, L: 50, M: 100}},
		{Spec: "2callH-IntroB", Thresholds: &analysis.Thresholds{P: 5000}},
		{Spec: "2objH", Syntactic: &so},
	}
	for _, j := range jobs {
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("marshal %+v: %v", j, err)
		}
		var back analysis.Job
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !reflect.DeepEqual(j, back) {
			t.Errorf("round trip changed the job:\n  in  %+v\n  out %+v", j, back)
		}
		c1, err := j.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("canonical bytes differ across a round trip: %s vs %s", c1, c2)
		}
	}
}

// TestJobCanonicalDistinguishes checks the other half of the cache-key
// property: jobs that request different computations canonicalize to
// different bytes.
func TestJobCanonicalDistinguishes(t *testing.T) {
	a := analysis.Job{Spec: "2objH-IntroA"}
	b := analysis.Job{Spec: "2objH-IntroA", Thresholds: &analysis.Thresholds{K: 1}}
	ca, _ := a.Canonical()
	cb, _ := b.Canonical()
	if bytes.Equal(ca, cb) {
		t.Errorf("distinct jobs share canonical form %s", ca)
	}
}

// TestJobCanonicalPinned pins the canonical encoding of a plain job
// byte for byte. It is the job half of internal/service's cache key,
// so any change to it turns every entry of a durable store written by
// an earlier build into a miss.
func TestJobCanonicalPinned(t *testing.T) {
	got, err := analysis.Job{Spec: "2objH"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"spec":"2objH"}`; string(got) != want {
		t.Errorf("canonical encoding = %s, want %s", got, want)
	}
}

// TestJobValidate exercises server-side validation without a program.
func TestJobValidate(t *testing.T) {
	so := introspect.DefaultSyntactic()
	for _, c := range []struct {
		job analysis.Job
		ok  bool
	}{
		{analysis.Job{Spec: "2objH-IntroA"}, true},
		{analysis.Job{Spec: "2objH", Syntactic: &so}, true},
		{analysis.Job{}, false},
		{analysis.Job{Spec: "2objH-IntroZ"}, false},
		{analysis.Job{Spec: "2objH", Thresholds: &analysis.Thresholds{K: 1}}, false},
		{analysis.Job{Spec: "insens-IntroA"}, false},
	} {
		err := c.job.Validate()
		if c.ok && err != nil {
			t.Errorf("Validate(%+v): %v, want ok", c.job, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Validate(%+v) passed, want error", c.job)
		}
	}
}

// TestJobThresholdsEquivalence pins that explicitly spelling the
// paper's default constants is the same analysis as omitting them —
// so a ptad client that round-trips defaults gets cache-compatible
// results, not just equal ones.
func TestJobThresholdsEquivalence(t *testing.T) {
	prog := randprog.Generate(5, randprog.Default())
	run := func(th *analysis.Thresholds) *analysis.Result {
		t.Helper()
		res, err := analysis.Run(context.Background(), analysis.Request{
			Prog:   prog,
			Job:    analysis.Job{Spec: "2objH-IntroA", Thresholds: th},
			Limits: analysis.Limits{Budget: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	implicit := run(nil)
	explicit := run(&analysis.Thresholds{K: introspect.DefaultK, L: introspect.DefaultL, M: introspect.DefaultM})
	// Compare everything but the wall clock: ElapsedMS legitimately
	// differs between two runs of the same job on a loaded machine.
	pi, pe := *implicit.Precision, *explicit.Precision
	pi.ElapsedMS, pe.ElapsedMS = 0, 0
	if implicit.Main.Work != explicit.Main.Work || !reflect.DeepEqual(pi, pe) {
		t.Errorf("explicit default thresholds diverge from implicit defaults: work %d vs %d, precision %+v vs %+v",
			implicit.Main.Work, explicit.Main.Work, pi, pe)
	}
}
