// Command tracecheck validates a Chrome trace-event JSON file as
// produced by `pta -trace`, `introbench -trace` or ptad's
// /debug/trace: the file must parse (object or bare-array form),
// contain stage spans with consistent nesting per lane, and — unless
// -require-snapshots=false — carry at least one sampled solver
// snapshot with a live work counter. Lanes are keyed by (pid, tid),
// as the Chrome format scopes tids to their pid.
//
// With -from-run, the input is a pta/v1 run document (a /v1/analyze
// response saved to disk) and the embedded "trace" field is what gets
// validated — the shape a `trace=1` request returns.
// `make trace-smoke` runs the plain mode; scripts/check.sh runs both.
//
// Usage: tracecheck [-require-snapshots=true] [-from-run] trace.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"introspect/internal/obs"
)

func main() {
	requireSnaps := flag.Bool("require-snapshots", true, "fail unless the trace has a solver snapshot with work > 0")
	fromRun := flag.Bool("from-run", false, "input is a pta/v1 run document; validate its embedded trace field")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require-snapshots=true] [-from-run] trace.json")
		os.Exit(2)
	}
	if err := check(flag.Arg(0), *requireSnaps, *fromRun); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

// lane identifies one viewer lane.
type lane struct {
	pid, tid int64
}

func check(path string, requireSnaps, fromRun bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var src io.Reader = f
	if fromRun {
		var run struct {
			Trace json.RawMessage `json:"trace"`
		}
		if err := json.NewDecoder(f).Decode(&run); err != nil {
			return fmt.Errorf("%s: not a run document: %w", path, err)
		}
		if len(run.Trace) == 0 {
			return fmt.Errorf("%s: run document has no trace field (was the request made with trace=1?)", path)
		}
		src = bytes.NewReader(run.Trace)
	}
	events, err := obs.ParseChrome(src)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	var spans, instants, meta int
	var snapshots int
	byLane := map[lane][]obs.ChromeEvent{}
	pids := map[int64]bool{}
	for _, ev := range events {
		pids[ev.PID] = true
		switch ev.Phase {
		case obs.PhaseSpan:
			spans++
			if ev.Dur < 0 || ev.TS < 0 {
				return fmt.Errorf("%s: span %q has negative ts/dur (%v, %v)", path, ev.Name, ev.TS, ev.Dur)
			}
			byLane[lane{ev.PID, ev.TID}] = append(byLane[lane{ev.PID, ev.TID}], ev)
		case obs.PhaseInstant:
			instants++
			if ev.Name == "solver" {
				if w, _ := ev.Args["work"].(float64); w > 0 {
					snapshots++
				} else {
					return fmt.Errorf("%s: solver snapshot without a positive work counter: %v", path, ev.Args)
				}
			}
		case obs.PhaseMetadata:
			meta++
		}
	}
	if spans == 0 {
		return fmt.Errorf("%s: no spans (phase %q events)", path, obs.PhaseSpan)
	}
	if meta == 0 {
		return fmt.Errorf("%s: no process/thread metadata — lanes would be unlabeled", path)
	}
	if requireSnaps && snapshots == 0 {
		return fmt.Errorf("%s: no solver snapshot instants (was the solve long enough for the sampling interval?)", path)
	}

	// Spans on one lane must nest like a call stack: a span that starts
	// inside another must also end inside it. Partial overlap renders as
	// garbage in trace viewers and means Begin/End pairing broke.
	const eps = 1.0 // µs tolerance for rounding at span boundaries
	for ln, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].TS != evs[j].TS {
				return evs[i].TS < evs[j].TS
			}
			return evs[i].Dur > evs[j].Dur // longer (outer) span first on ties
		})
		var stack []obs.ChromeEvent
		for _, ev := range evs {
			for len(stack) > 0 && ev.TS >= stack[len(stack)-1].TS+stack[len(stack)-1].Dur-eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.TS+ev.Dur > top.TS+top.Dur+eps {
					return fmt.Errorf("%s: pid %d tid %d: span %q [%v,+%v] partially overlaps %q [%v,+%v]",
						path, ln.pid, ln.tid, ev.Name, ev.TS, ev.Dur, top.Name, top.TS, top.Dur)
				}
			}
			stack = append(stack, ev)
		}
	}

	fmt.Printf("tracecheck: %s ok: %d spans, %d instants (%d solver snapshots), %d metadata, %d lanes, %d process(es)\n",
		path, spans, instants, snapshots, meta, len(byLane), len(pids))
	return nil
}
