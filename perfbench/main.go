// Command perfbench is the repository's benchmark: it runs one named
// workload with a seed for a given number of seconds, checks every
// output it produces, and prints each metric with its unit and, as its
// last line, one JSON result object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 28 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off; with --trace 1 it records spans around every call it
// makes into the system and prints the per-layer metrics instead.
// README.md describes the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what a workload is run with.
type env struct {
	seed    int64
	seconds int
	trace   bool
}

var workloads = map[string]func(env) (*result, error){
	"paper-figs": paperFigs,
	"lint-prov":  lintProv,
	"ptad-sweep": ptadSweep,
}

// Each workload builds its set-up at least minSetupReps times and until
// minSetupTime has passed; setup_s is the median.
const (
	minSetupReps = 3
	minSetupTime = 2 * time.Second
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 28, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	// Every workload runs with the two CPUs the benchmark is sized for.
	runtime.GOMAXPROCS(2)
	r, err := w(env{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		return err
	}
	return r.write(out, *trace == 1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is where the benchmark may write: the build directory the
// run script uses, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// timeSetup runs setup repeatedly and returns the median seconds. The
// last run's products are the ones the workload uses.
func timeSetup(setup func() error) (float64, error) {
	var secs []float64
	for len(secs) < minSetupReps || sum(secs) < minSetupTime.Seconds() {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// batches is how many fixed batches a closed-loop run measures: as many
// as fit in seconds at the workload's typical batch time, at least two.
// Fixing the count, rather than stopping on the clock, keeps the sample
// counts, and so the tail percentiles, the same on every run.
func batches(seconds int, batchSeconds float64) int {
	return max(2, int(math.Round(float64(seconds)/batchSeconds)))
}

// setClosedLoop sets the metrics a closed-loop workload reports from its
// batch walls, the analysis runs it completed, and the latency samples
// of its insensitive (hit) and context-sensitive (miss) work.
func setClosedLoop(r *result, walls []float64, runs int, hit, miss []float64, gc gcStats) {
	r.note("batch walls (s): %.3f", walls)
	r.set("wall_s", median(walls))
	r.set("trace.wall_s", median(walls))
	if t := sum(walls); t > 0 {
		r.set("throughput_rps", float64(runs)/t)
	}
	setLatencies(r, hit, miss)
	setGC(r, gc)
}

func setLatencies(r *result, hit, miss []float64) {
	r.set("hit_p50_ms", p50(hit))
	r.set("miss_p50_ms", p50(miss))
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"hit", hit}, {"miss", miss}} {
		t := tail(c.xs)
		r.setTail(c.name+"_tail_ms", t)
		r.set(c.name+"_tail.pct", t.P)
		r.set(c.name+"_tail.n", float64(t.N))
	}
}

func setGC(r *result, gc gcStats) {
	r.set("gc.cpu_frac", gc.cpuFrac)
	r.set("gc.alloc_mb", gc.allocMiB)
	r.setTail("gc.pause_tail_ms", gc.pause)
}
