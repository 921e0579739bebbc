package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number's name and unit, as BENCHMARK.json
// declares it.
type metric struct{ name, unit string }

// endToEnd lists what every untraced run reports, in BENCHMARK.json
// order. README.md defines each per workload. The latency tails are
// printed by every run but reported per layer: on a shared 2-CPU
// machine they spread too far from run to run to hold any bound.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"throughput_rps", "1/s"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
}

// perLayer lists what every traced run reports, in BENCHMARK.json
// order. A layer that does no work on a workload reports 0.
var perLayer = []metric{
	{"mainpass.self_ms", "ms"},
	{"mainpass.work", "count"},
	{"mainpass.work_per_us", "1/us"},
	{"mainpass.deriv_per_prop", "ratio"},
	{"mainpass.capped_work_frac", "ratio"},
	{"mainpass.nodes", "count"},
	{"mainpass.heap_contexts", "count"},
	{"prov.witnessed", "count"},
	{"prepass.self_ms", "ms"},
	{"prepass.solves", "count"},
	{"prepass.shared", "count"},
	{"metrics.self_ms", "ms"},
	{"selection.self_ms", "ms"},
	{"selection.decisions", "count"},
	{"frontend.self_ms", "ms"},
	{"frontend.mb_per_s", "MB/s"},
	{"taint.self_ms", "ms"},
	{"checkers.self_ms", "ms"},
	{"checkers.diags", "count"},
	{"report.self_ms", "ms"},
	{"fleet.busy_frac", "ratio"},
	{"fleet.tail_ms", "ms"},
	{"fleet.attributed_frac", "ratio"},
	{"decode.p50_us", "us"},
	{"analyze.hit_p50_us", "us"},
	{"encode.p50_us", "us"},
	{"cache.hit_frac", "ratio"},
	{"cache.dedup", "count"},
	{"store.writes", "count"},
	{"queue.wait_p50_ms", "ms"},
	{"queue.wait_tail_ms", "ms"},
	{"solve.p50_ms", "ms"},
	{"gc.cpu_frac", "ratio"},
	{"gc.alloc_mb", "MiB"},
	{"gc.pause_tail_ms", "ms"},
	{"loadgen.late_tail_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"miss_tail_ms", "ms"},
	{"hit_tail.pct", "%"},
	{"hit_tail.n", "count"},
	{"miss_tail.pct", "%"},
	{"miss_tail.n", "count"},
	{"trace.wall_s", "s"},
}

// result is one run's outcome: operation counts, metric values by name,
// and human-readable notes printed ahead of the result line.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// setTail records a tail statistic and notes it with its percentile and
// counts.
func (r *result) setTail(name string, t tailStat) {
	r.set(name, t.Value)
	r.note("%s %.6g, read at p%g of %d samples, %d beyond", name, t.Value, t.P, t.N, t.Beyond)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation; the first few reasons are noted.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.note("FAILED: "+format, args...)
	}
}

// write prints the notes and one line per reported metric, then the
// result line the benchmark contract asks for, last.
func (r *result) write(w io.Writer, traced bool) error {
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-26s %14.6g %s\n", "failed_frac", failedFrac, "ratio")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(list))
	for _, m := range list {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%-26s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
