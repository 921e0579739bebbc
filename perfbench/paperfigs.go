package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"introspect/internal/figures"
	"introspect/internal/obs"
	"introspect/internal/report"
	"introspect/internal/suite"
)

// fig5Golden is the committed Figure 5 table, read at run time.
const fig5Golden = "cmd/introbench/testdata/fig5.golden"

// paperFigsBatchSeconds is about how long one paper-figs batch (Figures
// 5-7) takes on a 2-CPU machine; a run times seconds/this batches after
// its warm-up batch.
const paperFigsBatchSeconds = 9

// figTotals pins the deterministic outcome of one figure: its
// budget-capped runs and the derivations of its completed runs.
type figTotals struct {
	timeouts int
	cderivs  int64
}

// figExpect holds Figures 6 and 7 as the solver computes them at the
// commit that introduced this benchmark. Figure 5 is checked row by row
// against its golden file instead.
var figExpect = map[string]figTotals{
	"2typeH": {timeouts: 1, cderivs: 36165201},
	"2callH": {timeouts: 5, cderivs: 15880820},
}

// paperFigs regenerates Figures 5-7 with the default budget and fleet
// parallelism, in an order drawn from the seed. A batch is the three
// figures: 72 runs over 18 insensitive pre-passes.
func paperFigs(e env) (*result, error) {
	r := newResult()
	golden, err := os.ReadFile(fig5Golden)
	if err != nil {
		return nil, err
	}
	subjects := suite.ExperimentalSubjects()
	setup, err := timeSetup(func() error {
		for _, b := range subjects {
			suite.Profiles()[b].Build()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)
	// FigPerf's frontend stage reads the suite's memoized programs.
	for _, b := range subjects {
		if _, err := suite.Load(b); err != nil {
			return nil, err
		}
	}

	var tracer *obs.Tracer
	if e.trace {
		tracer = obs.NewTracer(ringCap)
	}
	benchTrack := tracer.NewTrack("perfbench")
	cfg := figures.Config{Parallel: 2, Tracer: tracer}
	rng := rand.New(rand.NewSource(e.seed))
	deeps := []string{"2objH", "2typeH", "2callH"}

	// hit and miss hold one value per batch, the mean of the figures' own
	// ms column: hit over the introspective runs, which reuse the shared
	// insensitive pre-pass, miss over the runs that solve from scratch
	// (insens and the full deep analysis). Single runs do not read
	// steadily: many take 10-40 ms, and whether a collection of the other
	// slot's garbage lands inside one decides much of that.
	var walls, hit, miss, reuse, scratch []float64
	runs := 0
	batch := func(cfg figures.Config, timed bool) {
		track := benchTrack
		if !timed {
			track = nil
		}
		for _, k := range rng.Perm(len(deeps)) {
			fig := deeps[k]
			sp := track.Begin("figures.FigPerf", map[string]any{"deep": fig})
			rows, err := figures.FigPerf(cfg, fig)
			sp.End()
			r.attempted++
			if err != nil {
				r.fail("figure %s: %v", fig, err)
				continue
			}
			if msg := checkFigure(fig, rows, string(golden)); msg != "" {
				r.fail("figure %s: %s", fig, msg)
			}
			if !timed {
				continue
			}
			runs += len(rows)
			for _, row := range rows {
				if strings.Contains(row.Analysis, "-Intro") {
					reuse = append(reuse, float64(row.ElapsedMS))
				} else {
					scratch = append(scratch, float64(row.ElapsedMS))
				}
			}
		}
	}
	// The first figures a process computes run on a cold, growing heap,
	// several times slower than later ones: one untimed batch first.
	batch(figures.Config{Parallel: cfg.Parallel}, false)

	heap := startHeapSampler()
	gc0 := readGC()
	for i := 0; i < batches(e.seconds, paperFigsBatchSeconds); i++ {
		reuse, scratch = reuse[:0], scratch[:0]
		start := time.Now()
		batch(cfg, true)
		walls = append(walls, time.Since(start).Seconds())
		hit, miss = append(hit, mean(reuse)), append(miss, mean(scratch))
	}
	gc := gcBetween(gc0, readGC())
	r.set("peak_heap_mb", heap.stopMiB())
	setClosedLoop(r, walls, runs, hit, miss, gc)
	if !e.trace {
		return r, nil
	}

	l, err := readSpans(tracer)
	if err != nil {
		return nil, err
	}
	self := l.stageSelf()
	setLayerSelf(r, self)
	var pc passCounts
	for _, s := range l.spans {
		pc.addSpan(s)
	}
	pc.report(r, self["mainpass"])
	fs := l.fleets(cfg.Parallel, benchTrackID(l))
	wall := sum(walls)
	r.set("fleet.busy_frac", fs.busy.Seconds()/(wall*float64(cfg.Parallel)))
	r.set("fleet.tail_ms", ms(fs.barrierIdle))
	if fs.busy > 0 {
		r.set("fleet.attributed_frac", float64(fs.stages)/float64(fs.busy))
	}
	var glue time.Duration
	for _, s := range l.spans {
		if s.name == "figures.FigPerf" {
			glue += selfTime(s.iv, fs.runs)
		}
	}
	r.note("figures.FigPerf self time outside any run: %.1f ms", ms(glue))
	return r, nil
}

// benchTrackID finds the benchmark's own track among a traced run's.
func benchTrackID(l *spanLog) int64 {
	for _, tid := range l.tracks {
		if l.names[tid] == "perfbench" {
			return tid
		}
	}
	return -1
}

// checkFigure compares a figure with its expected outcome: Figure 5
// with the golden table (ms column aside), Figures 6 and 7 with their
// pinned timeouts and completed-run derivations.
func checkFigure(deep string, rows []report.Row, golden string) string {
	if deep == "2objH" {
		figures.SortRows(rows, deep)
		if got := maskMS(formatFigure(deep, rows)); got != maskMS(golden) {
			return "table differs from " + fig5Golden
		}
		return ""
	}
	var got figTotals
	for _, row := range rows {
		if row.TimedOut {
			got.timeouts++
		} else {
			got.cderivs += row.Derivations
		}
	}
	if want := figExpect[deep]; got != want {
		return fmt.Sprintf("timeouts/derivations %d/%d, want %d/%d", got.timeouts, got.cderivs, want.timeouts, want.cderivs)
	}
	return ""
}

// formatFigure renders a figure the way cmd/introbench prints it.
func formatFigure(deep string, rows []report.Row) string {
	title := fmt.Sprintf("Figure %d: %s introspective variants (time + 3 precision metrics)", figures.FigNumber(deep), deep)
	sum := figures.Summary(rows)
	return report.FormatTable(title, rows) + "\n" +
		fmt.Sprintf("precision retained vs full %s (where full terminates): IntroA %.0f%%, IntroB %.0f%%\n\n", deep, 100*sum["A"], 100*sum["B"])
}

// maskMS drops the trailing ms column from every table row.
func maskMS(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) == 7 {
			lines[i] = strings.Join(f[:6], " ")
		}
	}
	return strings.Join(lines, "\n")
}
