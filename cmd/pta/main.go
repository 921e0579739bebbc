// Command pta runs a points-to analysis over a program — a suite
// benchmark, a Mini-Java source file, or a textual IR file — and
// prints cost and precision statistics.
//
// Usage:
//
//	pta -bench jython -analysis 2objH [-intro A|B] [-budget N]
//	pta -mj prog.mj -analysis 2objH
//	pta -ir prog.ir -analysis 2callH-IntroB -json
//	pta -mj prog.mj -emit prog.ir
//
// The -analysis spec resolves through the internal/analysis registry:
// plain analyses ("insens", "2objH", "2typeH", "2callH", "1call", and
// the context-free cut-shortcut analysis "cs") run as a single pass,
// introspective variants ("2objH-IntroA",
// "2objH-IntroB", "2objH-syntactic") run the full staged pipeline
// (insensitive pre-pass, metrics, selection, refined main pass).
// -intro A|B is shorthand for appending -IntroA/-IntroB to the spec.
//
// With -emit out.ir, the loaded program is written as textual IR
// (ir.Program.WriteText) and nothing is analyzed. pta -ir reads the
// file back, and cmd/ptad accepts it as a lang=ir source: this is how
// a suite benchmark or a Mini-Java file becomes IR.
//
// With -json, the run is emitted as one versioned analysis.RunJSON
// document ("schema":"pta/v1") — byte-identical to what cmd/ptad's
// POST /v1/analyze returns for the same program and spec — instead of
// the human-readable text.
//
// With -trace out.json, the run additionally records a Chrome
// trace-event file: one span per pipeline stage plus sampled solver
// snapshots (worklist depth, |pt|, context counts) as instant events.
// Load it in Perfetto (ui.perfetto.dev) or chrome://tracing. -snap-every
// tunes the sampling interval in solver work units.
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
	"introspect/internal/obs"
	"introspect/internal/report"
	"introspect/internal/suite"
	"introspect/internal/taint"
)

func main() {
	// Ctrl-C cancels the pipeline's context: the solver returns its
	// partial result promptly instead of the process being killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pta: interrupted:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pta:", err)
		os.Exit(1)
	}
}

// run executes the command against args, writing output to out. Split
// from main so tests drive it in-process (the -json golden test
// asserts the pta/v1 document byte-for-byte).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pta", flag.ContinueOnError)
	bench := fs.String("bench", "", "suite benchmark name (e.g. jython); see -list")
	mjFile := fs.String("mj", "", "Mini-Java source file to analyze")
	irFile := fs.String("ir", "", "textual IR file to analyze")
	spec := fs.String("analysis", "insens",
		"analysis spec: "+strings.Join(analysis.RegisteredSpecs(), ", ")+", or <spec>-IntroA/-IntroB")
	intro := fs.String("intro", "", "introspective heuristic: A or B (shorthand for -analysis <spec>-IntroA/-IntroB)")
	budget := fs.Int64("budget", 0, "work budget (0 = default, <0 = unlimited)")
	taintSources := fs.String("taint-sources", "", "comma-separated taint source methods; injects taint objects before solving (see cmd/ptalint)")
	taintSinks := fs.String("taint-sinks", "", "comma-separated taint sink methods (required with -taint-sources)")
	taintSans := fs.String("taint-sanitizers", "", "comma-separated taint sanitizer methods")
	jsonOut := fs.Bool("json", false, "emit one pta/v1 JSON document with per-stage stats instead of text")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
	snapEvery := fs.Int64("snap-every", 0, "solver work units between trace snapshots (0 = default; effective with -trace)")
	verbose := fs.Bool("v", false, "log stage progress to stderr")
	list := fs.Bool("list", false, "list benchmarks and exit")
	dump := fs.Bool("dumpstats", false, "print program statistics only")
	emit := fs.String("emit", "", "write the program as textual IR (the form -ir reads) to this file and exit")
	polysites := fs.Bool("polysites", false, "list polymorphic virtual call sites")
	dist := fs.Bool("dist", false, "print the points-to set size distribution")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range suite.Names() {
			fmt.Fprintln(out, n)
		}
		return nil
	}
	src := &analysis.Source{Bench: *bench, MJFile: *mjFile, IRFile: *irFile}
	if *dump || *emit != "" {
		prog, err := src.Load()
		if err != nil {
			return err
		}
		if *emit != "" {
			return writeFile("IR", *emit, prog.WriteText)
		}
		fmt.Fprintf(out, "%s: %s\n", prog.Name, prog.Stats())
		return nil
	}

	fullSpec := *spec
	switch *intro {
	case "":
	case "A":
		fullSpec += "-IntroA"
	case "B":
		fullSpec += "-IntroB"
	default:
		return errors.New("-intro must be A or B")
	}

	req := analysis.Request{
		Source: src,
		Job:    analysis.Job{Spec: fullSpec, Taint: taint.SpecFromLists(*taintSources, *taintSinks, *taintSans)},
		Limits: analysis.Limits{Budget: *budget},
	}
	if *verbose {
		req.Observer = analysis.ObserverFuncs{
			OnStageStart: func(stage string) {
				fmt.Fprintf(os.Stderr, "pta: stage %s...\n", stage)
			},
			OnStageFinish: func(stage string, st analysis.Stats, err error) {
				fmt.Fprintf(os.Stderr, "pta: stage %s done in %v (work=%d)\n", stage, st.Wall, st.Work)
			},
		}
	}
	var tracer *obs.Tracer
	var runSpan *obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		track := tracer.NewTrack(fullSpec)
		runSpan = track.Begin("run", map[string]any{"spec": fullSpec})
		req.Observer = analysis.Observers(req.Observer, analysis.TrackObserver(track))
		req.SnapshotEvery = *snapEvery
	}

	res, err := analysis.Run(ctx, req)
	if tracer != nil {
		runSpan.End()
		werr := writeFile("trace", *traceOut, func(w io.Writer) error { return tracer.WriteChrome(w, "pta") })
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "pta: trace: %d events -> %s (load in ui.perfetto.dev)\n", tracer.Len(), *traceOut)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return err
		}
		// A budget-exhausted main pass still carries a measured result
		// (the paper's TIMEOUT rows); anything else is fatal.
		var be *analysis.BudgetExceededError
		if !errors.As(err, &be) || res == nil || res.Main == nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "pta: warning:", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		return enc.Encode(analysis.NewRunJSON(res))
	}

	if res.Selection != nil {
		fmt.Fprintln(out, res.Selection)
	}
	fmt.Fprintf(out, "%s: %s\n", res.Prog.Name, res.Prog.Stats())
	fmt.Fprintln(out, res.Main.Stats())
	p := res.Precision
	fmt.Fprintf(out, "precision: polycalls=%d reachable=%d maycasts=%d\n",
		p.PolyVCalls, p.ReachableMethods, p.MayFailCasts)
	if *polysites {
		for _, s := range report.PolySites(res.Main) {
			fmt.Fprintln(out, "poly:", s)
		}
	}
	if *dist {
		fmt.Fprint(out, report.MeasureDistribution(res.Main))
	}
	return nil
}

// writeFile creates the file at path and fills it with write; what
// names the content in errors.
func writeFile(what, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", what, err)
	}
	return f.Close()
}
