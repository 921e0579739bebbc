package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail rule may report, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 70, 60, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// nearestRank is the 1-based nearest-rank position of percentile p in n
// samples, computed in integer tenths of a percent so that 90% of 160
// is exactly 144.
func nearestRank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	rank := (tenths*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailPercentile picks the highest ladder percentile of n samples that
// leaves at least minBeyond samples above its nearest-rank position and
// returns it with that count. ok is false when n is too small for even
// the median to qualify.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - nearestRank(p, n); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// tailStat is a tail latency with the percentile it was read at, the
// sample count, and how many samples lie beyond it.
type tailStat struct {
	Value  float64
	P      float64
	N      int
	Beyond int
}

// tail applies the tail rule to xs: the percentile is the highest one
// with minBeyond samples past its nearest rank, and its value is the
// Harrell-Davis estimate there. With too few samples for any ladder
// percentile it reports the maximum as P=100 with nothing beyond.
func tail(xs []float64) tailStat {
	if len(xs) == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	p, beyond, ok := tailPercentile(len(s))
	if !ok {
		return tailStat{Value: s[len(s)-1], P: 100, N: len(s)}
	}
	return tailStat{Value: hdQuantile(s, p/100), P: p, N: len(s), Beyond: beyond}
}

// p50 is the Harrell-Davis median of a latency sample.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return hdQuantile(sorted(xs), 0.5)
}

// hdQuantile is the Harrell-Davis estimate of the p-quantile of sorted
// samples: the average of every order statistic weighted by the
// Beta((n+1)p, (n+1)(1-p)) mass over its rank. Latencies come in
// clusters, one per program; a single order statistic jumps from one
// cluster to the next when the quantile falls between two, this
// estimate moves smoothly.
func hdQuantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	q, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(float64(i)/float64(n), a, b)
		q += (cur - prev) * s[i-1]
		prev = cur
	}
	return q
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by the continued fraction of Numerical Recipes (betai).
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the incomplete beta continued fraction by the
// modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 1000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// median is the interpolated 50th percentile; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// covered returns how much of within the union of ivs covers. The
// intervals may overlap each other, as children on concurrent tracks do.
func covered(within interval, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.dur()
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - covered(parent, children)
}

// timing is one open-loop request: when it was due, when its goroutine
// started sending, and when the response was complete, all as offsets
// from the start of the schedule.
type timing struct{ due, sent, done time.Duration }

// latency counts from the due time, so a request the generator sent
// late, or one stuck behind a stall, carries the wait.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how far behind schedule the generator sent the request.
func (t timing) late() time.Duration { return t.sent - t.due }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
