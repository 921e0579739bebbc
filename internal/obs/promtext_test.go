package obs

import (
	"strings"
	"testing"
)

// TestPromWriterGolden pins the exact exposition-format output —
// HELP/TYPE headers, label encoding, cumulative buckets, +Inf, sum and
// count lines.
func TestPromWriterGolden(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.CounterFamily("ptad_requests_total", "Total requests.").Series(nil, 3)
	p.GaugeFamily("ptad_in_flight", "Solves holding a worker slot.").Series(nil, 2)
	h := p.HistogramFamily("stage_ms", "Stage wall time.")
	h.Series(Labels{"stage": "main-pass"}, []float64{1, 5}, []uint64{2, 1, 1}, 12.5, 4)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	want := strings.Join([]string{
		"# HELP ptad_requests_total Total requests.",
		"# TYPE ptad_requests_total counter",
		"ptad_requests_total 3",
		"# HELP ptad_in_flight Solves holding a worker slot.",
		"# TYPE ptad_in_flight gauge",
		"ptad_in_flight 2",
		"# HELP stage_ms Stage wall time.",
		"# TYPE stage_ms histogram",
		`stage_ms_bucket{stage="main-pass",le="1"} 2`,
		`stage_ms_bucket{stage="main-pass",le="5"} 3`,
		`stage_ms_bucket{stage="main-pass",le="+Inf"} 4`,
		`stage_ms_sum{stage="main-pass"} 12.5`,
		`stage_ms_count{stage="main-pass"} 4`,
		"",
	}, "\n")
	if got := sb.String(); got != want {
		t.Errorf("exposition output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromWriterShortCounts zero-pads a counts slice shorter than
// bounds+1 instead of panicking.
func TestPromWriterShortCounts(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.HistogramFamily("h", "h.").Series(nil, []float64{1, 2, 3}, []uint64{1}, 1, 1)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `h_bucket{le="+Inf"} 1`) {
		t.Errorf("short counts mishandled:\n%s", sb.String())
	}
}

// TestPromWriterLabelEscaping: label values containing quotes,
// backslashes, and newlines must reach the exposition escaped per the
// format (\" \\ \n) — exactly what Go's %q produces — or a hostile
// program name could forge extra series or break a scrape.
func TestPromWriterLabelEscaping(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	f := p.CounterFamily("m", "m.")
	f.Series(Labels{"name": `say "hi"`}, 1)
	f.Series(Labels{"path": `C:\temp\x`}, 2)
	f.Series(Labels{"evil": "line1\nline2"}, 3)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`m{name="say \"hi\""} 1`,
		`m{path="C:\\temp\\x"} 2`,
		`m{evil="line1\nline2"} 3`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing escaped series %s in:\n%s", want, got)
		}
	}
	// The newline must never land raw: every physical line is one
	// sample or one comment.
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if line == "" || line == "line2\"} 3" {
			t.Errorf("raw newline split a sample line: %q", line)
		}
	}
}

// TestPromWriterZeroBucketHistogram: a histogram series with no
// observations still emits the full well-formed shape — every bucket
// at 0, +Inf at 0, sum 0, count 0 — so a scraper sees the series
// exists rather than a hole in the family.
func TestPromWriterZeroBucketHistogram(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.HistogramFamily("empty_ms", "Never observed.").
		Series(Labels{"stage": "pre-pass"}, []float64{1, 10}, nil, 0, 0)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP empty_ms Never observed.",
		"# TYPE empty_ms histogram",
		`empty_ms_bucket{stage="pre-pass",le="1"} 0`,
		`empty_ms_bucket{stage="pre-pass",le="10"} 0`,
		`empty_ms_bucket{stage="pre-pass",le="+Inf"} 0`,
		`empty_ms_sum{stage="pre-pass"} 0`,
		`empty_ms_count{stage="pre-pass"} 0`,
		"",
	}, "\n")
	if got := sb.String(); got != want {
		t.Errorf("zero-bucket histogram:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromWriterGaugeFamily: labeled gauges share the family
// HELP/TYPE header and sort their labels.
func TestPromWriterGaugeFamily(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	g := p.GaugeFamily("build_info", "Build metadata.")
	g.Series(Labels{"version": "v1", "arch": "amd64"}, 1)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP build_info Build metadata.",
		"# TYPE build_info gauge",
		`build_info{arch="amd64",version="v1"} 1`,
		"",
	}, "\n")
	if got := sb.String(); got != want {
		t.Errorf("gauge family:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
