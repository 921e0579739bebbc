package obs

import (
	"strings"
	"testing"
	"time"
)

// TestChromeRoundTrip writes a small nested trace and re-parses it,
// checking the event shapes and that span nesting survives the format:
// the child span's [ts, ts+dur] interval lies within the parent's on
// the same tid.
func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	track := tr.NewTrack("pipeline")
	run := track.Begin("run", map[string]any{"spec": "2objH-IntroA"})
	stage := track.Begin("main-pass", nil)
	track.Instant("solver", map[string]any{"work": int64(1000)})
	time.Sleep(time.Millisecond)
	stage.End()
	run.End()

	var sb strings.Builder
	if err := tr.WriteChrome(&sb, "test"); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChrome(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]ChromeEvent{}
	for _, ev := range events {
		byName[ev.Name] = ev
	}
	proc, ok := byName["process_name"]
	if !ok || proc.Phase != PhaseMetadata || proc.Args["name"] != "test" {
		t.Errorf("missing/wrong process_name metadata: %+v", proc)
	}
	thread, ok := byName["thread_name"]
	if !ok || thread.Args["name"] != "pipeline" {
		t.Errorf("missing/wrong thread_name metadata: %+v", thread)
	}
	runEv, ok := byName["run"]
	if !ok || runEv.Phase != PhaseSpan {
		t.Fatalf("missing run span: %+v", runEv)
	}
	stageEv, ok := byName["main-pass"]
	if !ok || stageEv.Phase != PhaseSpan {
		t.Fatalf("missing main-pass span: %+v", stageEv)
	}
	snapEv, ok := byName["solver"]
	if !ok || snapEv.Phase != PhaseInstant || snapEv.Scope != "t" {
		t.Fatalf("missing solver instant: %+v", snapEv)
	}

	if stageEv.TID != runEv.TID {
		t.Errorf("stage tid %d != run tid %d", stageEv.TID, runEv.TID)
	}
	if stageEv.TS < runEv.TS || stageEv.TS+stageEv.Dur > runEv.TS+runEv.Dur {
		t.Errorf("stage [%v,+%v] not nested in run [%v,+%v]",
			stageEv.TS, stageEv.Dur, runEv.TS, runEv.Dur)
	}
	if snapEv.TS < stageEv.TS || snapEv.TS > stageEv.TS+stageEv.Dur {
		t.Errorf("solver instant at %v outside stage [%v,+%v]", snapEv.TS, stageEv.TS, stageEv.Dur)
	}
	// JSON numbers decode as float64; the exporter must keep counter
	// args intact.
	if w, ok := snapEv.Args["work"].(float64); !ok || w != 1000 {
		t.Errorf("solver args.work = %v, want 1000", snapEv.Args["work"])
	}
}

// TestParseChromeBareArray accepts the other common on-disk form.
func TestParseChromeBareArray(t *testing.T) {
	events, err := ParseChrome(strings.NewReader(
		`[{"name":"a","ph":"X","ts":1,"dur":2,"pid":1,"tid":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "a" {
		t.Errorf("events = %+v", events)
	}
}

// TestParseChromeRejectsGarbage returns an error, not a panic or an
// empty success, for non-trace input.
func TestParseChromeRejectsGarbage(t *testing.T) {
	if _, err := ParseChrome(strings.NewReader("not json")); err == nil {
		t.Error("garbage parsed without error")
	}
}

// TestChromeIDsGatedOnTraceID: the trace_id arg appears in the Chrome
// export only after SetTraceID — CLI and /debug/trace exports stay
// byte-stable.
func TestChromeIDsGatedOnTraceID(t *testing.T) {
	build := func(traceID string) []ChromeEvent {
		tr := NewTracer(16)
		if traceID != "" {
			tr.SetTraceID(traceID)
		}
		track := tr.NewTrack("req")
		root := track.Begin("request", nil)
		child := track.Begin("solve", map[string]any{"spec": "insens"})
		child.End()
		root.End()
		return tr.ChromeEvents("node")
	}

	for _, ev := range build("") {
		if _, ok := ev.Args["trace_id"]; ok {
			t.Errorf("untraced export leaks trace_id on %q: %v", ev.Name, ev.Args)
		}
	}

	byName := map[string]ChromeEvent{}
	for _, ev := range build("trace-42") {
		byName[ev.Name] = ev
	}
	if got := byName["process_name"].Args["trace_id"]; got != "trace-42" {
		t.Errorf("process metadata trace_id = %v", got)
	}
	solve := byName["solve"]
	if solve.Args["trace_id"] != "trace-42" {
		t.Errorf("solve trace_id = %v", solve.Args["trace_id"])
	}
	// Stamping must not mutate the caller-retained args map.
	if solve.Args["spec"] != "insens" {
		t.Errorf("original arg lost: %v", solve.Args)
	}
}
