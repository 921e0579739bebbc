package taint_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/ir"
	"introspect/internal/taint"
)

// solveKernel runs the standalone kernel as a taint job under spec and
// returns the checker target plus the ground truth.
func solveKernel(t *testing.T, spec string) (*checkers.Target, *taint.GroundTruth) {
	t.Helper()
	prog, gt := taint.Kernel()
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog:       prog,
		Job:        analysis.Job{Spec: spec, Taint: taint.KernelSpec()},
		Provenance: true,
	})
	if err != nil {
		t.Fatalf("solve %s: %v", spec, err)
	}
	if res.TaintInfo == nil {
		t.Fatalf("solve %s: no TaintInfo on result", spec)
	}
	return &checkers.Target{Prog: res.Prog, Res: res.Main, Taint: res.TaintInfo}, gt
}

// reportedSinks returns the distinct invocation-site names of taint
// reports, sorted.
func reportedSinks(tg *checkers.Target) []string {
	seen := map[string]bool{}
	for _, f := range checkers.SinkFlows(tg) {
		seen[tg.Prog.InvoName(f.Invo)] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

var kernelPolicies = []string{"insens", "2objH", "2objH-IntroA", "2objH-IntroB", "cs"}

// TestKernelShapeInsens: the context-insensitive analysis conflates the
// hot and cold wrappers (shared tput/tget) AND the factory pair, so it
// reports every sink except the sanitized one.
func TestKernelShapeInsens(t *testing.T) {
	tg, gt := solveKernel(t, "insens")
	want := sortedCopy(append(append([]string(nil), gt.Tainted...),
		diff(gt.Clean, gt.Sanitized)...))
	if got := reportedSinks(tg); !equal(got, want) {
		t.Fatalf("insens reported %v, want %v", got, want)
	}
}

// TestKernelShape2objH: object-sensitivity separates the hot and cold
// wrappers but not the factory pair (one allocation site, and a static
// factory inherits its caller's context), so exactly one false
// positive remains.
func TestKernelShape2objH(t *testing.T) {
	tg, gt := solveKernel(t, "2objH")
	c := checkers.CountAgainst(tg, gt)
	if c.TruePos != len(gt.Tainted) {
		t.Fatalf("2objH found %d/%d true flows", c.TruePos, len(gt.Tainted))
	}
	if c.FalsePos != 1 {
		t.Fatalf("2objH false positives = %d, want 1 (the factory pair); reported %v",
			c.FalsePos, reportedSinks(tg))
	}
}

// TestKernelSoundAndSanitized: under every policy, all truly tainted
// sinks are reported (soundness within the encoding) and the sanitized
// sink never is (the cleansing cast is policy-free).
func TestKernelSoundAndSanitized(t *testing.T) {
	for _, spec := range kernelPolicies {
		tg, gt := solveKernel(t, spec)
		got := reportedSinks(tg)
		for _, want := range gt.Tainted {
			if !contains(got, want) {
				t.Errorf("%s misses true flow %s", spec, want)
			}
		}
		for _, san := range gt.Sanitized {
			if contains(got, san) {
				t.Errorf("%s reports sanitized sink %s", spec, san)
			}
		}
	}
}

// TestKernelRefinesInsens: every policy's report set is a subset of the
// insensitive one — context-sensitivity only removes taint reports.
func TestKernelRefinesInsens(t *testing.T) {
	insTg, _ := solveKernel(t, "insens")
	ins := reportedSinks(insTg)
	for _, spec := range kernelPolicies[1:] {
		tg, _ := solveKernel(t, spec)
		for _, n := range reportedSinks(tg) {
			if !contains(ins, n) {
				t.Errorf("%s reports %s which insens does not", spec, n)
			}
		}
	}
}

// TestKernelWitness: with provenance on, the taint-flow diagnostics of
// a true flow carry a witness path beginning at the synthetic taint
// allocation in the source method.
func TestKernelWitness(t *testing.T) {
	tg, gt := solveKernel(t, "2objH")
	diags := checkers.TaintFlowChecker{}.Check(tg)
	found := false
	for _, d := range diags {
		if !strings.HasPrefix(d.Site, gt.Tainted[0]) {
			continue
		}
		found = true
		if len(d.Witness) == 0 {
			t.Fatalf("no witness on %s", d.Site)
		}
		if !strings.Contains(d.Witness[0], taint.TaintClass) {
			t.Fatalf("witness does not start at the taint allocation: %v", d.Witness)
		}
	}
	if !found {
		t.Fatalf("no taint-flow diagnostic for %s in %v", gt.Tainted[0], diags)
	}
}

// TestSanitizerBypass: the kernel's hot flows pass taint that the
// program sanitizes on another path, so they are flagged as bypasses;
// the sanitized sink itself is not.
func TestSanitizerBypass(t *testing.T) {
	tg, gt := solveKernel(t, "2objH")
	diags := checkers.SanitizerBypassChecker{}.Check(tg)
	if len(diags) == 0 {
		t.Fatal("no sanitizer-bypass diagnostics on the kernel")
	}
	for _, d := range diags {
		for _, san := range gt.Sanitized {
			if strings.HasPrefix(d.Site, san) {
				t.Errorf("sanitized sink flagged as bypass: %s", d.Site)
			}
		}
	}
}

// TestWithKernelMergesGroundTruth: grafting the kernel onto another
// program preserves the kernel's invocation-site names and keeps both
// halves' entries live.
func TestWithKernelMergesGroundTruth(t *testing.T) {
	base := buildBase(t)
	merged, gt, err := taint.WithKernel(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Entries) != len(base.Entries)+1 {
		t.Fatalf("merged entries = %d, want %d", len(merged.Entries), len(base.Entries)+1)
	}
	names := map[string]bool{}
	for i := 0; i < merged.NumInvos(); i++ {
		names[merged.InvoName(ir.InvoID(i))] = true
	}
	for _, n := range append(append([]string(nil), gt.Tainted...), gt.Clean...) {
		if !names[n] {
			t.Errorf("ground-truth invo %s not present in merged program", n)
		}
	}
	// Base identifiers keep their meaning.
	for i := range base.Methods {
		if merged.MethodName(ir.MethodID(i)) != base.MethodName(ir.MethodID(i)) {
			t.Fatalf("method %d renamed by merge", i)
		}
	}
}

// TestInjectLeavesBaseUntouched: Inject and WithKernel build changed
// copies. The input program dumps the same after each, every table
// and the sanitizer's Casts and Ret included, and so does the first
// copy after a second one is built from the same input.
func TestInjectLeavesBaseUntouched(t *testing.T) {
	dump := func(p *ir.Program) string { return fmt.Sprintf("%v", *p) }
	kern, _ := taint.Kernel()
	for _, tc := range []struct {
		name string
		base *ir.Program
		edit func(*ir.Program) (*ir.Program, error)
	}{
		{"Inject", kern, func(p *ir.Program) (*ir.Program, error) {
			p2, _, err := taint.Inject(p, taint.KernelSpec())
			return p2, err
		}},
		{"WithKernel", buildBase(t), func(p *ir.Program) (*ir.Program, error) {
			p2, _, err := taint.WithKernel(p)
			return p2, err
		}},
	} {
		before := dump(tc.base)
		first, err := tc.edit(tc.base)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		firstDump := dump(first)
		if _, err := tc.edit(tc.base); err != nil {
			t.Fatalf("%s again: %v", tc.name, err)
		}
		if dump(tc.base) != before {
			t.Errorf("%s changed its input program", tc.name)
		}
		if dump(first) != firstDump {
			t.Errorf("a second %s changed the first one's program", tc.name)
		}
	}
	p2, inj, err := taint.Inject(kern, taint.KernelSpec())
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumHeaps() != kern.NumHeaps()+1 {
		t.Fatalf("injected program has %d heaps, want %d (one source)", p2.NumHeaps(), kern.NumHeaps()+1)
	}
	if len(inj.Sources) != 1 || len(inj.Sinks) != 1 || len(inj.Sanitizers) != 1 {
		t.Fatalf("unexpected match sets: %+v", inj)
	}
}

// TestEditErrors: a program that already holds what an edit adds is
// rejected, with an error naming the clash.
func TestEditErrors(t *testing.T) {
	merged, _, err := taint.WithKernel(buildBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := taint.WithKernel(merged); err == nil || !strings.Contains(err.Error(), `"TaintData"`) {
		t.Errorf("WithKernel twice: error %v, want a duplicate type TaintData", err)
	}
	injected, _, err := taint.Inject(merged, taint.KernelSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := taint.Inject(injected, taint.KernelSpec()); err == nil || !strings.Contains(err.Error(), "already defines "+taint.TaintClass) {
		t.Errorf("Inject twice: error %v, want one naming %s", err, taint.TaintClass)
	}
}

// TestSpecValidate exercises the spec validation surface.
func TestSpecValidate(t *testing.T) {
	bad := []taint.Spec{
		{},
		{Sources: []string{"a"}},
		{Sinks: []string{"b"}},
		{Sources: []string{""}, Sinks: []string{"b"}},
		{Sources: []string{"a", "a"}, Sinks: []string{"b"}},
		{Sources: []string{"a"}, Sinks: []string{"b"}, Sanitizers: []string{"a"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d unexpectedly valid: %+v", i, s)
		}
	}
	ok := taint.Spec{Sources: []string{"a"}, Sinks: []string{"b"}, Sanitizers: []string{"c"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestSpecFromLists pins how a comma-list triple becomes a Spec:
// elements are trimmed, empty ones dropped, and three lists with no
// element left mean no taint job at all.
func TestSpecFromLists(t *testing.T) {
	for _, tc := range []struct {
		sources, sinks, sans string
		want                 *taint.Spec
	}{
		{"", "", "", nil},
		{" ", "", "", nil},
		{" , ,", " ", ",", nil},
		{"A.get", "B.put", "", &taint.Spec{Sources: []string{"A.get"}, Sinks: []string{"B.put"}}},
		{" A.get , get/0 ,", ",B.put,,", " C.scrub ",
			&taint.Spec{Sources: []string{"A.get", "get/0"}, Sinks: []string{"B.put"}, Sanitizers: []string{"C.scrub"}}},
		// One non-empty list is a taint job; Validate rejects it later.
		{"A.get", " ", "", &taint.Spec{Sources: []string{"A.get"}}},
		{"", "", "C.scrub", &taint.Spec{Sanitizers: []string{"C.scrub"}}},
	} {
		got := taint.SpecFromLists(tc.sources, tc.sinks, tc.sans)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SpecFromLists(%q, %q, %q) = %+v, want %+v", tc.sources, tc.sinks, tc.sans, got, tc.want)
		}
	}
}

// TestInjectRoleConflicts: a method matched in conflicting roles is an
// injection error even when the patterns differ textually.
func TestInjectRoleConflicts(t *testing.T) {
	prog, _ := taint.Kernel()
	_, _, err := taint.Inject(prog, &taint.Spec{
		Sources: []string{"TaintApi.fetch"},
		Sinks:   []string{"fetch/0"}, // same method, different pattern
	})
	if err == nil {
		t.Fatal("source∩sink overlap not rejected")
	}
}

// TestInjectRoleConflictDeterministic: with two methods in conflicting
// roles, every call names the one with the lower id, which need not
// come first by name.
func TestInjectRoleConflictDeterministic(t *testing.T) {
	b := ir.NewBuilder("conflicts")
	cls := b.AddClass("A", ir.None, nil)
	main := b.AddStaticMethod(cls, "main", 0, true)
	for _, name := range []string{"read", "get"} {
		m := b.AddStaticMethod(cls, name, 0, false)
		main.Call(main.NewVar(name, ir.None), m.ID(), ir.None)
	}
	b.AddEntry(main.ID())
	prog := b.MustFinish()
	spec := &taint.Spec{Sources: []string{"A.get", "A.read"}, Sinks: []string{"get/0", "read/0"}}
	const want = "taint: method A.read matched as both source and sink"
	for i := 0; i < 20; i++ {
		if _, _, err := taint.Inject(prog, spec); err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", i, err, want)
		}
	}
}

func buildBase(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("base")
	cls := b.AddClass("Base", ir.None, nil)
	main := b.AddStaticMethod(cls, "main", 0, true)
	v := main.NewVar("x", ir.None)
	main.Alloc(v, cls, "")
	b.AddEntry(main.ID())
	return b.MustFinish()
}

func contains(sorted []string, s string) bool {
	i := sort.SearchStrings(sorted, s)
	return i < len(sorted) && sorted[i] == s
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func diff(a, b []string) []string {
	var out []string
	for _, s := range a {
		skip := false
		for _, t := range b {
			if s == t {
				skip = true
			}
		}
		if !skip {
			out = append(out, s)
		}
	}
	return out
}
