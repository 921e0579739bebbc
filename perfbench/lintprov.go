package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/ir"
	"introspect/internal/obs"
	"introspect/internal/suite"
	"introspect/internal/taint"
)

// lintProvBatchSeconds is about how long one lint-prov batch (all nine
// programs) takes on a 2-CPU machine; a run times seconds/this batches
// after its warm-up batch.
const lintProvBatchSeconds = 4.7

// lintSpecs are the two analyses each program is linted under: the
// insensitive baseline and the introspective pipeline.
var lintSpecs = []string{"insens", "2objH-IntroA"}

// lintInput is one suite program grafted with the taint kernel, as the
// textual IR a user would hand to ptalint.
type lintInput struct {
	name string
	text []byte
	gt   *taint.GroundTruth
}

func buildLintInputs() ([]lintInput, error) {
	var out []lintInput
	for _, b := range suite.Names() {
		prog, gt, err := taint.WithKernel(suite.Profiles()[b].Build())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := prog.WriteText(&buf); err != nil {
			return nil, err
		}
		out = append(out, lintInput{b, buf.Bytes(), gt})
	}
	return out, nil
}

// lintProv lints every program sequentially, as repeated ptalint calls
// would: parse the IR text, then for each spec solve with the taint
// kernel's spec and provenance on, and run every checker.
func lintProv(e env) (*result, error) {
	r := newResult()
	var inputs []lintInput
	setup, err := timeSetup(func() (err error) {
		inputs, err = buildLintInputs()
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	var tracer *obs.Tracer
	if e.trace {
		tracer = obs.NewTracer(ringCap)
	}
	rng := rand.New(rand.NewSource(e.seed))
	var pc passCounts
	var parseBytes int
	var diags, witnessed int

	var walls, hit, miss []float64
	runs := 0
	batch := func(tracer *obs.Tracer, timed bool) {
		for _, k := range rng.Perm(len(inputs)) {
			in := inputs[k]
			track := tracer.NewTrack(in.name)
			sp := track.Begin("ir.ParseText", nil)
			prog, err := ir.ParseText(bytes.NewReader(in.text))
			sp.End()
			if timed {
				parseBytes += len(in.text)
			}
			if err != nil {
				r.attempted += len(lintSpecs)
				r.fail("%s: parse: %v", in.name, err)
				continue
			}
			for _, spec := range lintSpecs {
				r.attempted++
				opStart := time.Now()
				res, ds, err := lintOnce(track, prog, spec)
				lat := ms(time.Since(opStart))
				if err != nil {
					r.fail("%s %s: %v", in.name, spec, err)
					continue
				}
				if msg := checkLint(res, ds, in.gt); msg != "" {
					r.fail("%s %s: %s", in.name, spec, msg)
				}
				if !timed {
					continue
				}
				runs++
				if spec == "insens" {
					hit = append(hit, lat)
				} else {
					miss = append(miss, lat)
				}
				if tracer != nil {
					for _, st := range res.Stages {
						pc.addStats(st)
					}
					diags += len(ds)
					for _, d := range ds {
						if len(d.Witness) > 0 {
							witnessed++
						}
					}
				}
			}
		}
	}
	// The first batch of a process runs on a cold, growing heap: one
	// untimed batch first.
	batch(nil, false)

	heap := startHeapSampler()
	gc0 := readGC()
	for i := 0; i < batches(e.seconds, lintProvBatchSeconds); i++ {
		start := time.Now()
		batch(tracer, true)
		walls = append(walls, time.Since(start).Seconds())
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
	parse := l.durations("ir.ParseText")
	var parseTotal time.Duration
	for _, d := range parse {
		parseTotal += d
	}
	self["frontend"] += parseTotal
	setLayerSelf(r, self)
	pc.report(r, self["mainpass"])
	if parseTotal > 0 {
		r.set("frontend.mb_per_s", float64(parseBytes)/1e6/parseTotal.Seconds())
	}
	r.set("checkers.self_ms", ms(l.selfOf("checkers.Run")))
	r.set("checkers.diags", float64(diags))
	r.set("prov.witnessed", float64(witnessed))
	r.note("analysis.Run self time outside its stages: %.1f ms", ms(l.selfOf("analysis.Run")))
	return r, nil
}

// lintOnce runs one analysis and the checker suite over its result,
// with spans on track when tracing.
func lintOnce(track *obs.Track, prog *ir.Program, spec string) (*analysis.Result, []checkers.Diagnostic, error) {
	req := analysis.Request{
		Prog:       prog,
		Job:        analysis.Job{Spec: spec, Taint: taint.KernelSpec()},
		Provenance: true,
	}
	if track != nil {
		req.Observer = analysis.TrackObserver(track)
	}
	sp := track.Begin("analysis.Run", nil)
	res, err := analysis.Run(context.Background(), req)
	sp.End()
	if err != nil {
		// A budget-capped main pass is still linted, as ptalint does.
		var be *analysis.BudgetExceededError
		if !errors.As(err, &be) || res == nil || res.Main == nil {
			return nil, nil, err
		}
	}
	sp = track.Begin("checkers.Run", nil)
	ds := checkers.Run(&checkers.Target{Prog: res.Prog, Res: res.Main, Baseline: res.First, Taint: res.TaintInfo}, checkers.All())
	sp.End()
	return res, ds, nil
}

// checkLint requires every true kernel flow to be reported and every
// taint-flow diagnostic to carry a provenance witness.
func checkLint(res *analysis.Result, ds []checkers.Diagnostic, gt *taint.GroundTruth) string {
	tgt := &checkers.Target{Prog: res.Prog, Res: res.Main, Taint: res.TaintInfo}
	if c := checkers.CountAgainst(tgt, gt); c.TruePos != len(gt.Tainted) {
		return "missed a true taint flow"
	}
	for _, d := range ds {
		if d.Checker == (checkers.TaintFlowChecker{}).Name() && len(d.Witness) == 0 {
			return "taint-flow diagnostic without a witness: " + d.Site
		}
	}
	return ""
}
