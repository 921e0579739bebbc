package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) without any external dependency. It is a thin
// formatting layer: callers own the values, the writer owns HELP/TYPE
// headers, label encoding, and the cumulative-bucket convention for
// histograms.
//
// The first write error is latched and reported by Err; subsequent
// calls are no-ops, so call sites stay linear.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatValue renders a sample value the way Prometheus expects:
// integral values without an exponent, everything else in Go's
// shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Labels is one metric's label set. Encoded sorted by key for stable
// output.
type Labels map[string]string

func (l Labels) encode(extra ...string) string {
	if len(l) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, l[k])
	}
	// extra is alternating key, value — used for the "le" bucket label,
	// appended after the sorted user labels.
	for i := 0; i+1 < len(extra); i += 2 {
		if sb.Len() > 1 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extra[i], extra[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// CounterFamily starts a counter metric family; emit each series with
// Family.Series. The family writes its HELP/TYPE header once, so an
// empty family (no series) is still a well-formed exposition entry.
func (p *PromWriter) CounterFamily(name, help string) *Family {
	p.header(name, help, "counter")
	return &Family{p: p, name: name}
}

// GaugeFamily starts a gauge metric family, as CounterFamily does.
func (p *PromWriter) GaugeFamily(name, help string) *Family {
	p.header(name, help, "gauge")
	return &Family{p: p, name: name}
}

// Family emits the series of one counter or gauge family.
type Family struct {
	p    *PromWriter
	name string
}

// Series emits one sample; nil labels give the unlabeled sample.
func (f *Family) Series(labels Labels, v float64) {
	f.p.printf("%s%s %s\n", f.name, labels.encode(), formatValue(v))
}

// HistogramFamily starts a histogram metric family; emit each labeled
// series with Series. The family writes its HELP/TYPE header once.
func (p *PromWriter) HistogramFamily(name, help string) *HistogramFamily {
	p.header(name, help, "histogram")
	return &HistogramFamily{p: p, name: name}
}

// HistogramFamily emits the series of one histogram family.
type HistogramFamily struct {
	p    *PromWriter
	name string
}

// Series emits one labeled histogram: cumulative buckets for each
// upper bound plus the implicit +Inf, then _sum and _count. counts has
// one entry per bound plus one for +Inf (a short counts slice is
// zero-padded).
func (f *HistogramFamily) Series(labels Labels, bounds []float64, counts []uint64, sum float64, count uint64) {
	var cum uint64
	at := func(i int) uint64 {
		if i < len(counts) {
			return counts[i]
		}
		return 0
	}
	for i, b := range bounds {
		cum += at(i)
		f.p.printf("%s_bucket%s %d\n", f.name, labels.encode("le", formatValue(b)), cum)
	}
	cum += at(len(bounds))
	f.p.printf("%s_bucket%s %d\n", f.name, labels.encode("le", "+Inf"), cum)
	f.p.printf("%s_sum%s %s\n", f.name, labels.encode(), formatValue(sum))
	f.p.printf("%s_count%s %d\n", f.name, labels.encode(), count)
}
