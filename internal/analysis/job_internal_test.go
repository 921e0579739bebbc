package analysis

import (
	"reflect"
	"testing"

	"introspect/internal/introspect"
)

// TestThresholdsMaterialize pins the merge rule: nil receiver and zero
// fields keep the paper's defaults, positive fields override them.
func TestThresholdsMaterialize(t *testing.T) {
	var nilT *Thresholds
	for _, c := range []struct {
		name      string
		got, want *introspect.Heuristic
	}{
		{"nil.heuristicA()", nilT.heuristicA(), introspect.DefaultA()},
		{"nil.heuristicB()", nilT.heuristicB(), introspect.DefaultB()},
		{"zero.heuristicA()", (&Thresholds{}).heuristicA(), introspect.DefaultA()},
		{"partial A override", (&Thresholds{K: 7, M: 9}).heuristicA(), introspect.HeuristicA(7, introspect.DefaultL, 9)},
		{"partial B override", (&Thresholds{Q: 42}).heuristicB(), introspect.HeuristicB(introspect.DefaultP, 42)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// TestResolveJob covers the single interpretation point's branches
// without running any solver.
func TestResolveJob(t *testing.T) {
	so := introspect.DefaultSyntactic()
	cases := []struct {
		name    string
		job     Job
		wantSel string // "" = single-pass, else the variant name
		wantErr bool
	}{
		{name: "plain", job: Job{Spec: "2objH"}, wantSel: ""},
		{name: "insens", job: Job{Spec: "insens"}, wantSel: ""},
		{name: "introA", job: Job{Spec: "2objH-IntroA"}, wantSel: "IntroA"},
		{name: "introB with thresholds", job: Job{Spec: "2callH-IntroB", Thresholds: &Thresholds{P: 5}}, wantSel: "IntroB"},
		{name: "syntactic suffix", job: Job{Spec: "2objH-syntactic"}, wantSel: "syntactic"},
		{name: "syntactic options", job: Job{Spec: "2objH", Syntactic: &so}, wantSel: "syntactic"},
		{name: "unknown variant", job: Job{Spec: "2objH-IntroZ"}, wantErr: true},
		{name: "thresholds without variant", job: Job{Spec: "2objH", Thresholds: &Thresholds{K: 1}}, wantErr: true},
		{name: "thresholds plus syntactic", job: Job{Spec: "2objH", Thresholds: &Thresholds{K: 1}, Syntactic: &so}, wantErr: true},
		{name: "introspective insens", job: Job{Spec: "insens-IntroA"}, wantErr: true},
		{name: "bogus spec", job: Job{Spec: "9zorkH"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, h, syn, err := resolveJob(c.job)
			if c.wantErr {
				if err == nil {
					t.Fatalf("resolveJob(%+v) succeeded, want error", c.job)
				}
				return
			}
			if err != nil {
				t.Fatalf("resolveJob(%+v): %v", c.job, err)
			}
			name := ""
			switch {
			case h != nil && syn != nil:
				t.Fatalf("resolveJob(%+v) returned both a heuristic and syntactic options", c.job)
			case h != nil:
				name = h.Name
			case syn != nil:
				name = "syntactic"
			}
			if name != c.wantSel {
				t.Errorf("variant %q, want %q", name, c.wantSel)
			}
		})
	}
}

// TestResolveJobThresholdsReach checks that Job.Thresholds actually
// reaches the materialized heuristic (not just parses).
func TestResolveJobThresholdsReach(t *testing.T) {
	_, h, _, err := resolveJob(Job{Spec: "2objH-IntroA", Thresholds: &Thresholds{K: 3, L: 4, M: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if want := introspect.HeuristicA(3, 4, 5); !reflect.DeepEqual(h, want) {
		t.Errorf("materialized %+v, want %+v", h, want)
	}
}

// TestPoolSize is the regression test for RunAll's worker-count
// contract: workers <= 0 means one worker per CPU, and the pool never
// exceeds the number of requests.
func TestPoolSize(t *testing.T) {
	if got := poolSize(0, 100); got < 1 || got > 100 {
		t.Errorf("poolSize(0, 100) = %d, want in [1, 100]", got)
	}
	if got := poolSize(-3, 100); got < 1 {
		t.Errorf("poolSize(-3, 100) = %d, want >= 1", got)
	}
	if got := poolSize(8, 3); got != 3 {
		t.Errorf("poolSize(8, 3) = %d, want 3 (capped at len(reqs))", got)
	}
	if got := poolSize(2, 100); got != 2 {
		t.Errorf("poolSize(2, 100) = %d, want 2 (explicit positive honored)", got)
	}
}
