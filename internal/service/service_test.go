package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/ir"
	"introspect/internal/randprog"
	"introspect/internal/service"
	"introspect/internal/suite"
	"introspect/internal/taint"
)

// wallRE scrubs wall-clock fields so pta/v1 documents byte-compare.
var wallRE = regexp.MustCompile(`"(wall_ns|elapsed_ms)":\d+`)

// canonical renders a response as deterministic bytes: JSON with wall
// times zeroed and the cache label dropped.
func canonical(t *testing.T, resp *analysis.RunJSON) string {
	t.Helper()
	cp := *resp
	cp.Cache = ""
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(wallRE.ReplaceAll(b, []byte(`"$1":0`)))
}

func irText(t *testing.T, prog *ir.Program) string {
	t.Helper()
	var sb strings.Builder
	if err := prog.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func holderMJ(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/ptalint/holder.mj")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheHitEqualsColdSolve is the cache-correctness property test:
// over random programs and a spread of specs, the cached response is
// indistinguishable (modulo wall time and the cache label) from the
// cold solve that produced it — and the label sequence is miss, hit.
func TestCacheHitEqualsColdSolve(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2})
	for seed := int64(1); seed <= 3; seed++ {
		src := irText(t, randprog.Generate(seed, randprog.Default()))
		for _, spec := range []string{"insens", "2objH", "2objH-IntroA"} {
			name := fmt.Sprintf("p%d-%s", seed, spec)
			req := service.Request{Lang: "ir", Name: name, Source: src, Job: analysis.Job{Spec: spec}, Budget: -1}

			cold, serr := svc.Analyze(context.Background(), req)
			if serr != nil {
				t.Fatalf("%s cold: %v", name, serr)
			}
			if cold.Cache != "miss" {
				t.Errorf("%s cold cache label = %q, want miss", name, cold.Cache)
			}
			hit, serr := svc.Analyze(context.Background(), req)
			if serr != nil {
				t.Fatalf("%s hit: %v", name, serr)
			}
			if hit.Cache != "hit" {
				t.Errorf("%s second request cache label = %q, want hit", name, hit.Cache)
			}
			if c, h := canonical(t, cold), canonical(t, hit); c != h {
				t.Errorf("%s cached response diverges from cold solve:\ncold %s\nhit  %s", name, c, h)
			}
			if cold.Schema != "pta/v1" || !cold.Complete {
				t.Errorf("%s cold = schema %q complete %v", name, cold.Schema, cold.Complete)
			}
		}
	}
}

// TestSingleFlightHammer fires identical concurrent requests at a grid
// of keys — three programs under three specs, three requests per key —
// and checks exactly one solve per key: 9 misses and 9 solves, and the
// other 18 requests served as hits or dedups, a hit ratio of 2/3. Run
// under -race this also exercises the flight/cache locking.
func TestSingleFlightHammer(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2, QueueDepth: 64})
	var reqs []service.Request
	for seed := int64(1); seed <= 3; seed++ {
		src := irText(t, randprog.Generate(seed, randprog.Default()))
		for _, spec := range []string{"insens", "2objH", "2objH-IntroA"} {
			req := service.Request{Lang: "ir", Name: fmt.Sprintf("p%d", seed), Source: src, Job: analysis.Job{Spec: spec}, Budget: -1}
			reqs = append(reqs, req, req, req)
		}
	}

	var wg sync.WaitGroup
	responses := make([]*analysis.RunJSON, len(reqs))
	errs := make([]*service.Error, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = svc.Analyze(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()

	docs := map[string]string{} // program and spec → canonical document
	counts := map[string]int{}
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		counts[responses[i].Cache]++
		key, c := req.Name+" "+req.Job.Spec, canonical(t, responses[i])
		if want, ok := docs[key]; !ok {
			docs[key] = c
		} else if c != want {
			t.Fatalf("request %d (%s) returned a different document", i, key)
		}
	}
	m := svc.Metrics()
	if m.Solves != 9 || m.Cache.Misses != 9 {
		t.Errorf("solves = %d, misses = %d, want 9 each (single-flight broken); cache labels: %v", m.Solves, m.Cache.Misses, counts)
	}
	if counts["miss"] != 9 {
		t.Errorf("miss count = %d, want 9; labels: %v", counts["miss"], counts)
	}
	if counts["hit"]+counts["dedup"] != 18 {
		t.Errorf("hit+dedup = %d, want 18; labels: %v", counts["hit"]+counts["dedup"], counts)
	}
}

// TestPrePassSharing checks the cross-variant reuse the cache exists
// for: after an insens request, an introspective request for the same
// source injects the cached insensitive result instead of re-solving
// the pre-pass — and its response is identical to an unshared run's.
// At a budget the cached result's work does not fit, the request
// solves and caps its own pre-pass instead, as an unshared run does.
func TestPrePassSharing(t *testing.T) {
	src := holderMJ(t)
	insens := service.Request{Source: src, Job: analysis.Job{Spec: "insens"}, Budget: -1}
	for _, tc := range []struct {
		budget int64
		shared uint64 // pre_pass_shared after the introspective run
	}{{-1, 1}, {20, 0}} {
		intro := service.Request{Source: src, Job: analysis.Job{Spec: "2objH-IntroA"}, Budget: tc.budget}

		// Cold reference: the introspective run with no sharing possible.
		ref, serr := service.MustNew(service.Config{Workers: 1}).Analyze(context.Background(), intro)
		if serr != nil {
			t.Fatal(serr)
		}

		svc := service.MustNew(service.Config{Workers: 1})
		if _, serr := svc.Analyze(context.Background(), insens); serr != nil {
			t.Fatal(serr)
		}
		if m := svc.Metrics(); m.PrePassShared != 0 {
			t.Fatalf("pre_pass_shared = %d before any introspective run", m.PrePassShared)
		}
		shared, serr := svc.Analyze(context.Background(), intro)
		if serr != nil {
			t.Fatal(serr)
		}
		if m := svc.Metrics(); m.PrePassShared != tc.shared {
			t.Errorf("budget %d: pre_pass_shared = %d, want %d", tc.budget, m.PrePassShared, tc.shared)
		}
		if r, s := canonical(t, ref), canonical(t, shared); r != s {
			t.Errorf("budget %d: warm insensitive result changed the response:\ncold %s\nwarm %s", tc.budget, r, s)
		}
	}
}

// TestUntakenOfferNotCounted: the program's insensitive pass is
// offered to every solve, and pre_pass_shared counts only the solves
// that take it. One that records provenance, or a taint job, solves its
// own pre-pass and leaves the counter as it was.
func TestUntakenOfferNotCounted(t *testing.T) {
	kern, _ := taint.Kernel()
	src := irText(t, kern)
	svc := service.MustNew(service.Config{Workers: 1})
	analyzeOne(t, svc, service.Request{Lang: "ir", Source: src, Budget: -1, Job: analysis.Job{Spec: "insens"}})
	intro := service.Request{Lang: "ir", Source: src, Budget: -1, Job: analysis.Job{Spec: "2objH-IntroA"}}
	prov, tainted := intro, intro
	prov.Provenance = true
	tainted.Job.Taint = taint.KernelSpec()
	for _, c := range []struct {
		name   string
		req    service.Request
		shared uint64
	}{{"provenance", prov, 0}, {"taint", tainted, 0}, {"plain", intro, 1}} {
		analyzeOne(t, svc, c.req)
		if m := svc.Metrics(); m.PrePassShared != c.shared {
			t.Errorf("%s: pre_pass_shared = %d, want %d", c.name, m.PrePassShared, c.shared)
		}
	}
}

// TestBudgetExhaustedIsCacheable pins that a deterministic
// out-of-budget outcome is cached like a success, whichever pass runs
// out: the response has complete=false, a repeat is a hit from the one
// solve with identical counters, and no internal error is counted. A
// capped pre-pass ends the document, which then has no precision.
func TestBudgetExhaustedIsCacheable(t *testing.T) {
	src := irText(t, randprog.Generate(6, randprog.Default()))
	for _, tc := range []struct {
		spec    string
		budget  int64
		prePass bool // the pre-pass is the pass that runs out
	}{{"2objH", 50, false}, {"2objH-IntroA", 20, true}} {
		svc := service.MustNew(service.Config{Workers: 1})
		req := service.Request{Lang: "ir", Source: src, Job: analysis.Job{Spec: tc.spec}, Budget: tc.budget}

		cold, serr := svc.Analyze(context.Background(), req)
		if serr != nil {
			t.Fatalf("%s: budget-exhausted run should yield a document, got %v", tc.spec, serr)
		}
		if cold.Complete {
			t.Fatalf("%s: budget %d should not complete; raise the test's program size", tc.spec, tc.budget)
		}
		if last := cold.Stages[len(cold.Stages)-1]; tc.prePass &&
			(cold.Precision != nil || last.Stage != analysis.StagePrePass || !last.BudgetExceeded) {
			t.Errorf("%s: precision %v, last stage %s budget_exceeded=%v; want no precision and the capped pre-pass last",
				tc.spec, cold.Precision, last.Stage, last.BudgetExceeded)
		}
		hit, serr := svc.Analyze(context.Background(), req)
		if serr != nil {
			t.Fatal(serr)
		}
		if hit.Cache != "hit" {
			t.Errorf("%s: repeat of exhausted run = %q, want hit", tc.spec, hit.Cache)
		}
		if canonical(t, cold) != canonical(t, hit) {
			t.Errorf("%s: cached exhausted outcome diverges from the cold one", tc.spec)
		}
		if m := svc.Metrics(); m.Solves != 1 || m.InternalErrs != 0 {
			t.Errorf("%s: solves %d, internal_errors %d; want 1 and 0", tc.spec, m.Solves, m.InternalErrs)
		}
	}
}

// TestValidation covers the bad_request surface.
func TestValidation(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1, MaxSourceBytes: 64})
	for _, c := range []struct {
		name string
		req  service.Request
	}{
		{"empty source", service.Request{Job: analysis.Job{Spec: "insens"}}},
		{"bad lang", service.Request{Lang: "java", Source: "x", Job: analysis.Job{Spec: "insens"}}},
		{"empty spec", service.Request{Source: "class Main { void main() {} }"}},
		{"unknown variant", service.Request{Source: "x", Job: analysis.Job{Spec: "2objH-IntroZ"}}},
		{"thresholds on plain spec", service.Request{Source: "x", Job: analysis.Job{Spec: "2objH", Thresholds: &analysis.Thresholds{K: 1}}}},
		{"oversized source", service.Request{Source: strings.Repeat("x", 65), Job: analysis.Job{Spec: "insens"}}},
	} {
		_, serr := svc.Analyze(context.Background(), c.req)
		if serr == nil || serr.Code != service.CodeBadRequest {
			t.Errorf("%s: error = %v, want code bad_request", c.name, serr)
		}
	}
	// A source that does not parse is also the requester's fault.
	_, serr := svc.Analyze(context.Background(), service.Request{Source: "not mini java", Job: analysis.Job{Spec: "insens"}})
	if serr == nil || serr.Code != service.CodeBadRequest {
		t.Errorf("parse failure: error = %v, want code bad_request", serr)
	}
	// Each of the 6 rows and the parse failure counts once.
	if m := svc.Metrics(); m.Rejected.Invalid != 7 {
		t.Errorf("rejected.invalid = %d, want 7", m.Rejected.Invalid)
	}
}

// TestTaintRejectedByProgram: a taint spec that passes validation but
// that the program rejects is the requester's fault too. Both ways the
// taint-inject stage rejects one answer bad_request and count under
// rejected.invalid, not as internal errors.
func TestTaintRejectedByProgram(t *testing.T) {
	kern, _ := taint.Kernel()
	injected, _, err := taint.Inject(kern, taint.KernelSpec())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.MustNew(service.Config{Workers: 1})
	for _, c := range []struct {
		name string
		prog *ir.Program
		spec *taint.Spec
		want string
	}{
		{"method in two roles", kern,
			&taint.Spec{Sources: []string{"TaintApi.fetch"}, Sinks: []string{"fetch/0"}},
			"matched as both source and sink"},
		{"program defines taint$", injected, taint.KernelSpec(), "already defines " + taint.TaintClass},
	} {
		_, serr := svc.Analyze(context.Background(), service.Request{
			Lang: "ir", Source: irText(t, c.prog),
			Job: analysis.Job{Spec: "insens", Taint: c.spec},
		})
		if serr == nil || serr.Code != service.CodeBadRequest || !strings.Contains(serr.Message, c.want) {
			t.Errorf("%s: error = %v, want code bad_request naming %q", c.name, serr, c.want)
		}
	}
	if m := svc.Metrics(); m.Rejected.Invalid != 2 || m.InternalErrs != 0 {
		t.Errorf("rejected.invalid = %d, internal_errors = %d; want 2 and 0", m.Rejected.Invalid, m.InternalErrs)
	}
}

// TestAdmissionOverload checks the 429 path: with one worker and no
// queue, concurrent distinct requests beyond the first are rejected
// immediately with code overloaded and do no work. The requests use a
// large benchmark (jython, ~25k instructions) so the admitted one
// reliably still holds the worker while the rest arrive.
func TestAdmissionOverload(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1, QueueDepth: -1})
	src := irText(t, suite.MustLoad("jython"))

	const n = 8
	var wg sync.WaitGroup
	errs := make([]*service.Error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct names → distinct cache keys and flights: no
			// dedup, every request needs its own worker slot.
			_, errs[i] = svc.Analyze(context.Background(), service.Request{
				Lang: "ir", Name: fmt.Sprintf("jy%d", i), Source: src,
				Job: analysis.Job{Spec: "insens"}, Budget: -1,
			})
		}(i)
	}
	wg.Wait()

	var ok, overloaded int
	for i, serr := range errs {
		switch {
		case serr == nil:
			ok++
		case serr.Code == service.CodeOverloaded:
			overloaded++
		default:
			t.Errorf("request %d: unexpected error %v", i, serr)
		}
	}
	if ok == 0 {
		t.Error("no request was admitted")
	}
	if overloaded == 0 {
		t.Error("no request was rejected with code overloaded")
	}
	if m := svc.Metrics(); m.Rejected.Overload != uint64(overloaded) {
		t.Errorf("rejected.overload = %d, want %d", m.Rejected.Overload, overloaded)
	}
}

// TestDeadline checks the 504 path: a deadline far shorter than the
// solve (1ms against a ~25k-instruction benchmark) expires during the
// run and surfaces as code deadline, uncached.
func TestDeadline(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	src := irText(t, suite.MustLoad("jython"))
	req := service.Request{
		Lang: "ir", Source: src, Job: analysis.Job{Spec: "2objH"},
		Budget: -1, DeadlineMS: 1,
	}
	_, serr := svc.Analyze(context.Background(), req)
	if serr == nil || serr.Code != service.CodeDeadline {
		t.Fatalf("error = %v, want code deadline", serr)
	}
	// The detached solve runs on under the same deadline and fails with
	// it; wait for it to finish, so a second count would show.
	for m := svc.Metrics(); m.Queue.Depth != 0 || m.Queue.InFlight != 0; m = svc.Metrics() {
		time.Sleep(time.Millisecond)
	}
	if m := svc.Metrics(); m.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (one 504)", m.Timeouts)
	}

	// Deadline expiry is wall-clock nondeterminism: it must NOT be
	// cached. A retry of the byte-identical job (the deadline is not
	// part of the cache key — only deterministic inputs are) with a
	// workable deadline therefore solves instead of hitting.
	req.DeadlineMS = 60_000
	resp, serr := svc.Analyze(context.Background(), req)
	if serr != nil {
		t.Fatalf("retry after deadline: %v", serr)
	}
	if resp.Cache != "miss" {
		t.Errorf("retry cache label = %q, want miss (timeouts must not populate the cache)", resp.Cache)
	}
}
