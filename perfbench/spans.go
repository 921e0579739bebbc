package main

import (
	"fmt"
	"strings"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/obs"
)

// ringCap sizes the in-memory span ring of a traced run: well above
// what the longest traced run records, so nothing is evicted.
const ringCap = 1 << 17

// span is one completed span of a traced run.
type span struct {
	name  string
	track int64
	iv    interval
	args  map[string]any
}

// spanLog is a traced run's spans plus its tracks in creation order.
type spanLog struct {
	spans  []span
	tracks []int64
	names  map[int64]string
}

func readSpans(tr *obs.Tracer) (*spanLog, error) {
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("trace ring evicted %d records; raise ringCap", n)
	}
	l := &spanLog{names: map[int64]string{}}
	for _, rec := range tr.Spans() {
		switch rec.Phase {
		case obs.PhaseMetadata:
			name, _ := rec.Args["name"].(string)
			l.names[rec.TID] = name
			l.tracks = append(l.tracks, rec.TID)
		case obs.PhaseSpan:
			l.spans = append(l.spans, span{rec.Name, rec.TID, interval{rec.Start, rec.Start + rec.Dur}, rec.Args})
		}
	}
	return l, nil
}

// stageLayers maps pipeline stage span names to the layer they time.
var stageLayers = map[string]string{
	analysis.StageFrontend:  "frontend",
	analysis.StageTaint:     "taint",
	analysis.StagePrePass:   "prepass",
	analysis.StageMetrics:   "metrics",
	analysis.StageSelection: "selection",
	analysis.StageMainPass:  "mainpass",
	analysis.StageReport:    "report",
}

// stageSelf sums stage span time per layer. Stage spans have no
// children, so each one's self time is its duration.
func (l *spanLog) stageSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		if layer, ok := stageLayers[s.name]; ok {
			out[layer] += s.iv.dur()
		}
	}
	return out
}

// selfOf sums the self time of the spans named name, taking as children
// the stage spans on the same track inside each one.
func (l *spanLog) selfOf(name string) time.Duration {
	kids := map[int64][]interval{}
	for _, s := range l.spans {
		if _, ok := stageLayers[s.name]; ok {
			kids[s.track] = append(kids[s.track], s.iv)
		}
	}
	var total time.Duration
	for _, s := range l.spans {
		if s.name == name {
			total += selfTime(s.iv, kids[s.track])
		}
	}
	return total
}

// durations returns the durations of the spans named name.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.iv.dur())
		}
	}
	return out
}

func setLayerSelf(r *result, self map[string]time.Duration) {
	for _, layer := range stageLayers {
		r.set(layer+".self_ms", ms(self[layer]))
	}
}

// injectedRatio separates a shared pre-pass from a solved one: an
// injected result reports its original solve's work against a
// microseconds-long stage, while real solves manage 10 to 40 work units
// per microsecond.
const injectedRatio = 100

func injected(work int64, wall time.Duration) bool {
	return work > 0 && float64(work) > injectedRatio*float64(wall.Microseconds()+1)
}

// passCounts accumulates solver-pass counters from stage Stats or, where
// only the tracer hook is available, from stage span arguments.
type passCounts struct {
	work, capped, derivs, props  int64
	nodes, heapContexts          []float64
	prepassSolved, prepassShared int
}

func (c *passCounts) addStats(st analysis.Stats) {
	c.add(st.Stage, st.Work, st.Derivations, st.Wall, st.BudgetExceeded, st.Nodes)
	if st.Stage == analysis.StageMainPass {
		c.props += st.Propagations
		c.heapContexts = append(c.heapContexts, float64(st.HeapContexts))
	}
}

// addSpan reads what analysis.TrackObserver puts on a stage span:
// work, derivations, nodes and the budget flag, but no propagations or
// heap contexts.
func (c *passCounts) addSpan(s span) {
	capped, _ := s.args["budget_exceeded"].(bool)
	c.add(s.name, argInt(s.args, "work"), argInt(s.args, "derivations"), s.iv.dur(), capped, int(argInt(s.args, "nodes")))
}

func (c *passCounts) add(stage string, work, derivs int64, wall time.Duration, capped bool, nodes int) {
	switch stage {
	case analysis.StageMainPass:
		c.work += work
		c.derivs += derivs
		if capped {
			c.capped += work
		}
		c.nodes = append(c.nodes, float64(nodes))
	case analysis.StagePrePass:
		if injected(work, wall) {
			c.prepassShared++
		} else {
			c.prepassSolved++
		}
	}
}

// report sets the mainpass and prepass counters; mainSelf is the main
// pass's total self time.
func (c *passCounts) report(r *result, mainSelf time.Duration) {
	r.set("mainpass.work", float64(c.work))
	if us := float64(mainSelf) / float64(time.Microsecond); us > 0 {
		r.set("mainpass.work_per_us", float64(c.work)/us)
	}
	if c.props > 0 {
		r.set("mainpass.deriv_per_prop", float64(c.derivs)/float64(c.props))
	}
	if c.work > 0 {
		r.set("mainpass.capped_work_frac", float64(c.capped)/float64(c.work))
	}
	r.set("mainpass.nodes", mean(c.nodes))
	r.set("mainpass.heap_contexts", mean(c.heapContexts))
	r.set("prepass.solves", float64(c.prepassSolved))
	r.set("prepass.shared", float64(c.prepassShared))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func argInt(args map[string]any, key string) int64 {
	switch v := args[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	}
	return 0
}

// fleetStats describes how the figure fleets used their two run slots.
type fleetStats struct {
	busy        time.Duration // Σ run time over all runs
	stages      time.Duration // Σ stage span time inside those runs
	barrierIdle time.Duration // slot time left idle at the end of each fleet
	runs        []interval
}

// fleets reads the run tracks figures.Config.Tracer creates, one per
// analysis run, in creation order. FigPerf runs one fleet of insensitive
// runs and then one of the remaining variants, so a fleet ends where the
// track names switch between "<bench> insens" and the rest.
func (l *spanLog) fleets(slots int, skip int64) fleetStats {
	runOf := map[int64]*interval{}
	var fs fleetStats
	for _, s := range l.spans {
		if _, ok := stageLayers[s.name]; !ok || s.track == skip {
			continue
		}
		fs.stages += s.iv.dur()
		if iv := runOf[s.track]; iv == nil {
			runOf[s.track] = &interval{s.iv.start, s.iv.end}
		} else {
			iv.start, iv.end = min(iv.start, s.iv.start), max(iv.end, s.iv.end)
		}
	}
	var group []interval
	lastInsens := false
	flush := func() {
		if len(group) == 0 {
			return
		}
		window := interval{group[0].start, group[0].end}
		var busy time.Duration
		for _, iv := range group {
			window.start, window.end = min(window.start, iv.start), max(window.end, iv.end)
			busy += iv.dur()
		}
		fs.barrierIdle += time.Duration(slots)*window.dur() - busy
		group = group[:0]
	}
	for _, tid := range l.tracks {
		iv := runOf[tid]
		if iv == nil {
			continue
		}
		insens := strings.HasSuffix(l.names[tid], " insens")
		if insens != lastInsens {
			flush()
		}
		lastInsens = insens
		group = append(group, *iv)
		fs.busy += iv.dur()
		fs.runs = append(fs.runs, *iv)
	}
	flush()
	return fs
}
