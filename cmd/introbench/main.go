// Command introbench regenerates the paper's evaluation figures and
// tables over the synthetic benchmark suite.
//
// Usage:
//
//	introbench             # all figures
//	introbench -fig 5      # just Figure 5 (2objH variants)
//	introbench -budget N   # override the timeout budget
//	introbench -parallel N # cap concurrent analysis runs (0 = NumCPU)
//	introbench -trace t.json # record the figure fleets as a Chrome trace
//
// Figure numbers follow the paper: 1 (insens vs 2objH, all benchmarks),
// 4 (refinement-exclusion percentages), 5 (2objH variants), 6 (2typeH
// variants), 7 (2callH variants). Figures 8 and 9 are the
// reproduction's extension figures with no paper counterpart:
// introspective A/B vs cut-shortcut vs full 2objH over all nine
// benchmarks (8), and the taint-analysis client's true/false sink
// reports per context policy over the kernel-seeded benchmarks (9).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"introspect/internal/figures"
	"introspect/internal/obs"
	"introspect/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "introbench:", err)
		os.Exit(1)
	}
}

// run executes the command against args, writing the figures to out.
// Split from main so tests drive it in-process (the golden-output test
// asserts the figure tables byte-for-byte).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("introbench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (1, 4, 5, 6, 7, 8 for the cut-shortcut extension, or 9 for the taint client); 0 = all")
	budget := fs.Int64("budget", 0, "work budget standing in for the paper's 90min timeout (0 = default)")
	parallel := fs.Int("parallel", 0, "concurrent analysis runs per figure (0 = NumCPU); output is identical at any setting")
	ablation := fs.Bool("ablation", false, "run the heuristic-constant robustness sweep instead of the figures")
	syntactic := fs.Bool("syntactic", false, "run the traditional syntactic-heuristics baseline on the pathological benchmarks")
	traceOut := fs.String("trace", "", "write the figure fleets as a Chrome trace-event JSON file (open in Perfetto); one lane per analysis run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *fig {
	case 0, 1, 4, 5, 6, 7, 8, 9:
	default:
		return fmt.Errorf("no figure %d (have 1, 4, 5, 6, 7, 8, 9)", *fig)
	}

	cfg := figures.Config{Budget: *budget, Parallel: *parallel}
	if *traceOut != "" {
		cfg.Tracer = obs.NewTracer(0)
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "introbench: writing trace:", err)
				return
			}
			if err := cfg.Tracer.WriteChrome(f, "introbench"); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "introbench: writing trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "introbench: trace: %d events -> %s\n", cfg.Tracer.Len(), *traceOut)
		}()
	}
	if *ablation {
		for _, deep := range []string{"2objH", "2typeH", "2callH"} {
			rows, err := figures.Ablation(cfg, deep, []float64{0.5, 1, 2})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, figures.FormatAblation(deep, rows))
		}
		return nil
	}
	if *syntactic {
		rows, err := figures.SyntacticBaseline(cfg, "2objH", []string{"hsqldb", "jython"})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report.FormatTable(
			"Baseline: 2objH with traditional syntactic exclusions (strings/exceptions insensitive)", rows))
		fmt.Fprintln(out, "The pathologies survive the classic hard-coded heuristics — the paper's")
		fmt.Fprintln(out, "motivation for observing cost in a first analysis pass instead.")
		return nil
	}
	want := func(n int) bool { return *fig == 0 || *fig == n }

	if want(1) {
		rows, err := figures.Fig1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report.FormatTable("Figure 1: insens vs 2objH, all benchmarks", rows))
	}
	if want(4) {
		rows, err := figures.Fig4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, figures.FormatFig4(rows))
	}
	for _, deep := range []string{"2objH", "2typeH", "2callH"} {
		n := figures.FigNumber(deep)
		if !want(n) {
			continue
		}
		rows, err := figures.FigPerf(cfg, deep)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure %d: %s introspective variants (time + 3 precision metrics)", n, deep)
		fmt.Fprintln(out, report.FormatTable(title, rows))
		sum := figures.Summary(rows)
		fmt.Fprintf(out, "precision retained vs full %s (where full terminates): IntroA %.0f%%, IntroB %.0f%%\n\n",
			deep, 100*sum["A"], 100*sum["B"])
	}
	if want(8) {
		rows, err := figures.FigCS(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report.FormatTable(
			"Figure 8 (extension): introspective 2objH vs cut-shortcut, all benchmarks", rows))
		fmt.Fprint(out, figures.FormatFigCSTrailer(rows))
		fmt.Fprintln(out)
	}
	if want(9) {
		rows, err := figures.FigTaint(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(out, figures.FormatFigTaint(rows))
		fmt.Fprintln(out)
	}
	return nil
}
