package figures

import (
	"fmt"
	"testing"
)

// ablationWant pins every row of the 2objH and 2callH sweeps.
var ablationWant = map[string][]AblationRow{
	"2objH": {
		{0.5, "IntroA", nil, 0.7575212219461523},
		{0.5, "IntroB", []string{"jython"}, 1},
		{1, "IntroA", nil, 0.7575212219461523},
		{1, "IntroB", []string{"jython"}, 1},
		{2, "IntroA", nil, 0.7575212219461523},
		{2, "IntroB", []string{"jython"}, 1},
	},
	"2callH": {
		{0.5, "IntroA", nil, 0.7635993620144401},
		{0.5, "IntroB", []string{"jython"}, 1},
		{1, "IntroA", nil, 0.7635993620144401},
		{1, "IntroB", []string{"jython"}, 1},
		{2, "IntroA", nil, 0.7635993620144401},
		{2, "IntroB", []string{"jython"}, 1},
	},
}

// TestAblationRobustness pins the paper's claim that the heuristics'
// value "does not come from excessive tuning": scaling every constant
// of Heuristic A and B by 0.5× and 2× must leave the timeout picture
// unchanged and the precision retention within a tight band of the
// paper-constant run.
func TestAblationRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow; skipped with -short")
	}
	for _, deep := range []string{"2objH", "2callH"} {
		rows, err := Ablation(Config{}, deep, []float64{0.5, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		want := ablationWant[deep]
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", deep, len(rows), len(want))
		}
		for i, r := range rows {
			w := want[i]
			if r.Scale != w.Scale || r.Heuristic != w.Heuristic || fmt.Sprint(r.Timeouts) != fmt.Sprint(w.Timeouts) ||
				r.Retention != w.Retention {
				t.Errorf("%s row %d: %+v, want %+v", deep, i, r, w)
			}
		}
		base := map[string]AblationRow{}
		for _, r := range rows {
			if r.Scale == 1 {
				base[r.Heuristic] = r
			}
		}
		for _, r := range rows {
			b := base[r.Heuristic]
			if got, want := fmt.Sprint(r.Timeouts), fmt.Sprint(b.Timeouts); got != want {
				t.Errorf("%s %s at scale %.2g: timeouts %s, want %s (as at scale 1)",
					deep, r.Heuristic, r.Scale, got, want)
			}
			if r.Retention >= 0 && b.Retention >= 0 {
				d := r.Retention - b.Retention
				if d < -0.15 || d > 0.15 {
					t.Errorf("%s %s at scale %.2g: retention %.2f drifts from %.2f",
						deep, r.Heuristic, r.Scale, r.Retention, b.Retention)
				}
			}
		}
	}
}

func TestFormatAblation(t *testing.T) {
	out := FormatAblation("2objH", []AblationRow{
		{Scale: 0.5, Heuristic: "IntroA", Retention: 0.76},
		{Scale: 1, Heuristic: "IntroB", Timeouts: []string{"jython"}, Retention: -1},
	})
	for _, want := range []string{"2objH", "IntroA", "76%", "jython", "(none)", "n/a"} {
		if !contains(out, want) {
			t.Errorf("FormatAblation missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSyntacticBaselineStillExplodes pins the paper's related-work
// claim: the traditional syntactic heuristics (strings/exceptions
// context-insensitive) leave the scalability pathologies intact —
// 2objH still exhausts its budget on hsqldb and jython.
func TestSyntacticBaselineStillExplodes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipped with -short")
	}
	rows, err := SyntacticBaseline(Config{}, "2objH", []string{"hsqldb", "jython"})
	if err != nil {
		t.Fatal(err)
	}
	wantWork := []int64{30_000_498, 30_000_576}
	if len(rows) != len(wantWork) {
		t.Fatalf("%d rows, want %d", len(rows), len(wantWork))
	}
	for i, r := range rows {
		if !r.TimedOut {
			t.Errorf("%s: 2objH with syntactic exclusions terminated (work=%d); "+
				"the paper reports the pathologies survive such heuristics", r.Benchmark, r.Work)
		}
		if r.Work != wantWork[i] {
			t.Errorf("%s: work %d, want %d", r.Benchmark, r.Work, wantWork[i])
		}
	}
}
