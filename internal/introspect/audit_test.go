package introspect_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/suite"
)

// TestSelectAuditMatchesSelect pins that recording decisions does not
// change the refinement, for both paper heuristics at paper and
// tightened thresholds.
func TestSelectAuditMatchesSelect(t *testing.T) {
	prog, _, _, _ := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	heuristics := []*introspect.Heuristic{
		introspect.DefaultA(),
		introspect.DefaultB(),
		introspect.HeuristicA(1, 1, 1),
		introspect.HeuristicB(1, 1),
	}
	for _, h := range heuristics {
		want := h.Select(prog, m, nil)
		got := h.Select(prog, m, func(introspect.Decision) {})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: audited refinement differs from the silent one", h.Name)
		}
	}
}

// TestSelectWithAuditDecisions checks the decision log: observed
// elements get records with the right metric names, thresholds and
// verdicts; every demote in the refinement has a matching record; and
// the silent path carries no log.
func TestSelectWithAuditDecisions(t *testing.T) {
	prog, heaps, _, _ := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	// K=1 demotes heaps with pointed-by-vars > 1; h1 is pointed to by
	// o1, b, and util's formals, so it must be demoted.
	h := introspect.HeuristicA(1, 100, 200)
	sel := introspect.SelectWith(res, m, h, true)
	if len(sel.Decisions) == 0 {
		t.Fatal("audited selection has no decisions")
	}

	var demoted []string
	for _, d := range sel.Decisions {
		switch d.Verdict {
		case introspect.VerdictRefine, introspect.VerdictDemote:
		default:
			t.Errorf("decision %+v: bad verdict", d)
		}
		if d.Verdict == introspect.VerdictDemote && d.Value <= d.Threshold {
			t.Errorf("decision %+v: demote without exceeding threshold", d)
		}
		if d.Verdict == introspect.VerdictRefine && d.Value > d.Threshold {
			t.Errorf("decision %+v: refine above threshold", d)
		}
		if d.Kind == "heap" && d.Verdict == introspect.VerdictDemote {
			if d.Metric != "pointed-by-vars" || d.Threshold != 1 {
				t.Errorf("heap demote %+v: wrong metric/threshold", d)
			}
			demoted = append(demoted, d.Site)
		}
	}
	wantSite := prog.HeapName(heaps["h1"])
	found := false
	for _, s := range demoted {
		if s == wantSite {
			found = true
		}
	}
	if !found {
		t.Errorf("demoted heaps %v do not include %s", demoted, wantSite)
	}
	for _, d := range sel.Decisions {
		if d.Kind != "heap" || d.Verdict != introspect.VerdictDemote {
			continue
		}
		for _, id := range heaps {
			if prog.HeapName(id) == d.Site && !sel.Refinement.ExcludesHeap(id) {
				t.Errorf("demote record %+v not reflected in refinement", d)
			}
		}
	}

	// The audit must not change the Figure-4 statistics.
	silent := introspect.SelectWith(res, m, h, false)
	if silent.Decisions != nil {
		t.Error("SelectWith(audit=false) populated Decisions")
	}
	if silent.TotalHeaps != sel.TotalHeaps || silent.ExcludedHeaps != sel.ExcludedHeaps ||
		silent.TotalInvos != sel.TotalInvos || silent.ExcludedInvos != sel.ExcludedInvos {
		t.Errorf("audited stats %+v differ from silent %+v", sel, silent)
	}

	// Product clauses label the metric pair.
	selB := introspect.SelectWith(res, m, introspect.HeuristicB(10000, 1), true)
	foundProduct := false
	for _, d := range selB.Decisions {
		if d.Metric == "total-field-points-to*pointed-by-vars" {
			foundProduct = true
		}
	}
	if !foundProduct {
		t.Error("HeuristicB audit has no product-metric decision")
	}
}

// TestDecisionLogPinned pins antlr's audited selection at the paper's
// constants: the length of the decision log, the SHA-256 of its JSON,
// and the sizes of the three refinement sets. The log travels on the
// wire and is stored inside cached ptad documents, so its bytes and
// their order must not drift.
func TestDecisionLogPinned(t *testing.T) {
	prog, err := suite.Load("antlr")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec                  string
		n                     int
		sha                   string
		heaps, invos, methods int
	}{
		{"2objH-IntroA", 2721, "2df7764b5b02f0a249addc0a5867ca24d1b37eeddd29fff8fc64c6a6aa65cfa0", 1, 13, 8},
		{"2objH-IntroB", 848, "80d9f39b80e0a7e969c35f9675baf6e9ea0a8415de341f50e06f62e40ec2ff44", 0, 0, 0},
	} {
		res, err := analysis.Run(context.Background(), analysis.Request{
			Prog: prog, Job: analysis.Job{Spec: c.spec}, Audit: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		b, err := json.Marshal(res.Selection.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Selection.Decisions); n != c.n {
			t.Errorf("%s: %d decisions, want %d", c.spec, n, c.n)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != c.sha {
			t.Errorf("%s: decision log SHA-256 %s, want %s", c.spec, sum, c.sha)
		}
		ref := res.Selection.Refinement
		if h, i, m := ref.Heaps.Len(), ref.Invos.Len(), ref.Methods.Len(); h != c.heaps || i != c.invos || m != c.methods {
			t.Errorf("%s: refinement excludes %d heaps, %d invos, %d methods; want %d, %d, %d",
				c.spec, h, i, m, c.heaps, c.invos, c.methods)
		}
	}
}
