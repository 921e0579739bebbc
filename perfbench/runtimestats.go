package main

import (
	"math"
	"runtime/metrics"
	"time"
)

const (
	metricLiveHeap = "/gc/heap/live:bytes"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricAllCPU   = "/cpu/classes/total:cpu-seconds"
	metricAllocs   = "/gc/heap/allocs:bytes"
	metricGCPauses = "/sched/pauses/total/gc:seconds"
)

// heapSampler tracks the peak live heap (as of each GC's mark phase)
// while it runs.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	s := []metrics.Sample{{Name: metricLiveHeap}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

// stopMiB stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	h.observe()
	return float64(h.peak) / (1 << 20)
}

// gcSnapshot is a reading of the runtime's cumulative GC counters.
type gcSnapshot []metrics.Sample

func readGC() gcSnapshot {
	s := gcSnapshot{{Name: metricGCCPU}, {Name: metricAllCPU}, {Name: metricAllocs}, {Name: metricGCPauses}}
	metrics.Read(s)
	return s
}

// gcStats is what the collector cost between two snapshots.
type gcStats struct {
	cpuFrac  float64 // GC CPU over all CPU available to the process
	allocMiB float64
	pause    tailStat // stop-the-world GC pauses, ms
}

func gcBetween(a, b gcSnapshot) gcStats {
	var st gcStats
	if all := b[1].Value.Float64() - a[1].Value.Float64(); all > 0 {
		st.cpuFrac = (b[0].Value.Float64() - a[0].Value.Float64()) / all
	}
	st.allocMiB = float64(b[2].Value.Uint64()-a[2].Value.Uint64()) / (1 << 20)
	st.pause = histTail(a[3].Value.Float64Histogram(), b[3].Value.Float64Histogram())
	return st
}

// histTail applies the tail rule to the samples a cumulative runtime
// histogram gained between two readings, in ms. A sample's value is its
// bucket's upper bound (the lower one for the open last bucket).
func histTail(a, b *metrics.Float64Histogram) tailStat {
	counts := make([]uint64, len(b.Counts))
	n := 0
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		n += int(counts[i])
	}
	if n == 0 {
		return tailStat{}
	}
	bound := func(i int) float64 {
		if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
			return hi * 1000
		}
		return b.Buckets[i] * 1000
	}
	p, beyond, ok := tailPercentile(n)
	rank := n // the maximum, when too few samples qualify
	if ok {
		rank = nearestRank(p, n)
	} else {
		p = 100
	}
	seen := 0
	for i, c := range counts {
		seen += int(c)
		if seen >= rank {
			return tailStat{Value: bound(i), P: p, N: n, Beyond: beyond}
		}
	}
	return tailStat{}
}
