// Command ptalint runs the points-to-backed checker suite
// (internal/checkers) over a program and reports diagnostics.
//
// Usage:
//
//	ptalint -mj prog.mj                        # all checkers, 2objH
//	ptalint -bench jython -analysis insens
//	ptalint -mj prog.mj -checks may-fail-cast,empty-deref
//	ptalint -mj prog.mj -format sarif > out.sarif
//	ptalint -list                              # list checkers
//
// The -analysis spec resolves through the internal/analysis registry
// exactly like cmd/pta: a sharper analysis reports fewer, truer
// findings. By default the solver records derivation provenance, so
// each may-fail-cast diagnostic carries a witness path from the
// conflicting allocation site to the cast operand (-provenance=false
// turns this off).
//
// The conflation-hotspot checker needs a context-insensitive baseline
// to diff against. Introspective pipelines produce one as their
// pre-pass; for plain context-sensitive analyses ptalint solves one
// extra insensitive pass (-baseline=false skips it).
//
// With -format sarif, diagnostics are emitted as a minimal SARIF 2.1.0
// log: one run, one rule per checker, witnesses under each result's
// properties.witness.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/taint"
	ptav1 "introspect/pta/v1"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptalint:", err)
		os.Exit(1)
	}
}

// run executes the command against args, writing diagnostics to out.
// Split from main so tests drive it in-process (the golden-output test
// asserts the report byte-for-byte).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ptalint", flag.ContinueOnError)
	bench := fs.String("bench", "", "suite benchmark name (e.g. jython)")
	mjFile := fs.String("mj", "", "Mini-Java source file to lint")
	irFile := fs.String("ir", "", "textual IR file to lint")
	spec := fs.String("analysis", "2objH", "analysis spec: insens, 2objH, 2objH-IntroB, ... (see cmd/pta)")
	checks := fs.String("checks", "", "comma-separated checker names to run (default: all; see -list)")
	format := fs.String("format", "text", "output format: text, json (pta/v1), or sarif")
	budget := fs.Int64("budget", 0, "work budget per solver pass (0 = default, <0 = unlimited)")
	provenance := fs.Bool("provenance", true, "record derivation witnesses and attach them to diagnostics")
	baseline := fs.Bool("baseline", true, "solve an insensitive baseline for the conflation checker when the pipeline has none")
	sources := fs.String("taint-sources", "", "comma-separated taint source methods (name, Type.name, or name/arity); enables the taint checkers")
	sinks := fs.String("taint-sinks", "", "comma-separated taint sink methods (required with -taint-sources)")
	sanitizers := fs.String("taint-sanitizers", "", "comma-separated taint sanitizer methods")
	list := fs.Bool("list", false, "list the available checkers and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, c := range checkers.All() {
			fmt.Fprintf(out, "%-19s %s\n", c.Name(), c.Desc())
		}
		return nil
	}

	cs := checkers.All()
	if *checks != "" {
		var err error
		if cs, err = checkers.ByName(strings.Split(*checks, ",")...); err != nil {
			return err
		}
	}

	// Ctrl-C cancels the solver's context so partial work stops cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := analysis.Run(ctx, analysis.Request{
		Source:     &analysis.Source{Bench: *bench, MJFile: *mjFile, IRFile: *irFile},
		Job:        analysis.Job{Spec: *spec, Taint: taint.SpecFromLists(*sources, *sinks, *sanitizers)},
		Limits:     analysis.Limits{Budget: *budget},
		Provenance: *provenance,
	})
	if err != nil {
		// A budget-exhausted main pass still carries a measured result;
		// lint it, but tell the user the findings are from a partial run.
		var be *analysis.BudgetExceededError
		if !errors.As(err, &be) || res == nil || res.Main == nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "ptalint: warning:", err)
	}

	tgt := &checkers.Target{Prog: res.Prog, Res: res.Main, Baseline: res.First, Taint: res.TaintInfo}
	if tgt.Baseline == nil && *baseline && res.Main.Analysis != "insens" {
		b, err := analysis.Run(ctx, analysis.Request{
			Prog: res.Prog, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: *budget},
		})
		if err != nil {
			// The baseline only feeds the conflation diff; a baseline that
			// cannot finish just disables that checker.
			fmt.Fprintln(os.Stderr, "ptalint: warning: skipping conflation baseline:", err)
		} else {
			tgt.Baseline = b.Main
		}
	}

	diags := checkers.Run(tgt, cs)
	switch *format {
	case "text":
		writeText(out, res.Prog.Name, res.Main.Analysis, diags)
		return nil
	case "json":
		return writeJSON(out, res, diags)
	case "sarif":
		return writeSARIF(out, cs, diags)
	default:
		return fmt.Errorf("unknown format %q (have text, json, sarif)", *format)
	}
}

func writeJSON(out io.Writer, res *analysis.Result, diags []checkers.Diagnostic) error {
	if diags == nil {
		diags = []checkers.Diagnostic{}
	}
	enc := json.NewEncoder(out)
	return enc.Encode(ptav1.LintDoc{RunJSON: analysis.NewRunJSON(res), Diagnostics: diags})
}

// writeText renders the human-readable report: a summary line, then one
// block per diagnostic with its witness path indented beneath it. The
// output contains no wall-clock or other nondeterministic content, so
// it is golden-testable.
func writeText(out io.Writer, prog, analysisName string, diags []checkers.Diagnostic) {
	var nErr, nWarn int
	for _, d := range diags {
		switch d.Severity {
		case checkers.Error:
			nErr++
		case checkers.Warning:
			nWarn++
		}
	}
	fmt.Fprintf(out, "%s: %s: %d finding(s): %d error(s), %d warning(s), %d info\n",
		prog, analysisName, len(diags), nErr, nWarn, len(diags)-nErr-nWarn)
	for _, d := range diags {
		fmt.Fprintln(out, d)
		for _, step := range d.Witness {
			fmt.Fprintf(out, "    %s\n", step)
		}
	}
}

// Minimal SARIF 2.1.0 shapes — only the fields ptalint emits.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}
type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}
type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}
type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}
type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}
type sarifText struct {
	Text string `json:"text"`
}
type sarifResult struct {
	RuleID     string          `json:"ruleId"`
	Level      string          `json:"level"`
	Message    sarifText       `json:"message"`
	Locations  []sarifLocation `json:"locations"`
	Properties *sarifProps     `json:"properties,omitempty"`
}
type sarifLocation struct {
	LogicalLocations []sarifLogical `json:"logicalLocations"`
}
type sarifLogical struct {
	FullyQualifiedName string `json:"fullyQualifiedName"`
}
type sarifProps struct {
	Witness []string `json:"witness"`
}

func writeSARIF(out io.Writer, cs []checkers.Checker, diags []checkers.Diagnostic) error {
	rules := make([]sarifRule, len(cs))
	for i, c := range cs {
		rules[i] = sarifRule{ID: c.Name(), ShortDescription: sarifText{Text: c.Desc()}}
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		r := sarifResult{
			RuleID:  d.Checker,
			Level:   d.Severity.SARIFLevel(),
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{LogicalLocations: []sarifLogical{
				{FullyQualifiedName: d.Site},
			}}},
		}
		if len(d.Witness) > 0 {
			r.Properties = &sarifProps{Witness: d.Witness}
		}
		results = append(results, r)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ptalint", Rules: rules}},
			Results: results,
		}},
	})
}
