package service

import (
	"encoding/json"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/obs"
)

// histBoundsMS are the latency histogram's upper bounds in
// milliseconds, exponential like Prometheus defaults; observations
// above the last bound land in the implicit +Inf bucket.
var histBoundsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// histogram is a fixed-bucket latency histogram. Its buckets are an
// array, so copying a histogram copies them too.
type histogram struct {
	Counts [len(histBoundsMS) + 1]uint64 // last is +Inf
	Sum    float64                       // milliseconds
	N      uint64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.Counts[sort.SearchFloat64s(histBoundsMS[:], ms)]++
	h.Sum += ms
	h.N++
}

// MarshalJSON writes count and sum plus cumulative buckets keyed
// "le_<bound_ms>" and "le_inf": the Prometheus text shape in JSON.
func (h histogram) MarshalJSON() ([]byte, error) {
	buckets := make(map[string]uint64, len(h.Counts))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "inf"
		if i < len(histBoundsMS) {
			le = strconv.FormatFloat(histBoundsMS[i], 'f', -1, 64)
		}
		buckets["le_"+le] = cum
	}
	return json.Marshal(struct {
		Count   uint64            `json:"count"`
		SumMS   float64           `json:"sum_ms"`
		Buckets map[string]uint64 `json:"buckets"`
	}{h.N, h.Sum, buckets})
}

// MetricsSnapshot is the GET /metrics document, and each of its fields
// is the one declaration of a metric: Metrics keeps the live copy, and
// writePrometheus renders the same values under stable names.
type MetricsSnapshot struct {
	Requests uint64 `json:"requests"`
	Cache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Dedup  uint64 `json:"dedup"`
	} `json:"cache"`
	Disk struct {
		Hits    uint64 `json:"hits"`    // cache hits served from the durable store
		Writes  uint64 `json:"writes"`  // results spilled to the durable store
		Corrupt uint64 `json:"corrupt"` // store files rejected by verify-on-read
		Entries int    `json:"entries"`
	} `json:"disk"`
	Solves         uint64 `json:"solves"`           // completed solver runs
	PrePassShared  uint64 `json:"pre_pass_shared"`  // introspective runs that reused a cached insensitive pass
	MainPassShared uint64 `json:"main_pass_shared"` // introspective runs that reused a main pass of the same refinement
	Streams        uint64 `json:"streams"`
	Rejected       struct {
		Invalid  uint64 `json:"invalid"`  // 400
		Overload uint64 `json:"overload"` // admission rejections (429)
	} `json:"rejected"`
	Timeouts     uint64 `json:"timeouts"` // deadline expiries (504)
	InternalErrs uint64 `json:"internal_errors"`
	Queue        struct {
		InFlight int `json:"in_flight"` // solves holding a worker slot
		Depth    int `json:"depth"`     // admitted requests waiting for a slot
		Workers  int `json:"workers"`
		Capacity int `json:"capacity"` // workers + queue depth limit
	} `json:"queue"`
	StageLatencyMS map[string]histogram `json:"stage_latency_ms"`
	// Decisions is the aggregated introspection decision audit:
	// "metric|verdict" → count (metric labels never contain '|';
	// products spell "a*b").
	Decisions map[string]uint64 `json:"decisions,omitempty"`
	Mem       struct {
		// StageAllocBytes is cumulative bytes allocated per pipeline
		// stage (process-wide TotalAlloc deltas — see observer); Last is
		// the most recent solve's delta per stage.
		StageAllocBytes     map[string]uint64 `json:"stage_alloc_bytes,omitempty"`
		LastStageAllocBytes map[string]uint64 `json:"last_stage_alloc_bytes,omitempty"`
		// BytesPerNode is the latest solve's main-pass allocation
		// divided by its constraint-node count.
		BytesPerNode uint64 `json:"bytes_per_node,omitempty"`
		// HeapInuseBytes is the live runtime.MemStats.HeapInuse.
		HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	} `json:"mem"`
	UptimeMS   int64 `json:"uptime_ms"`
	Goroutines int   `json:"goroutines"`
}

// Metrics is the service's observability surface: one live
// MetricsSnapshot of monotonic counters, point-in-time gauges and
// per-stage latency histograms, updated in place under mu. Both GET
// /metrics renderings read a copy (snapshot), so no lock is held while
// a client is written to.
type Metrics struct {
	mu    sync.Mutex
	doc   MetricsSnapshot
	start time.Time // process metrics epoch, for the uptime gauge
}

func newMetrics() *Metrics {
	m := &Metrics{start: time.Now()}
	m.doc.StageLatencyMS = make(map[string]histogram)
	m.doc.Decisions = make(map[string]uint64)
	m.doc.Mem.StageAllocBytes = make(map[string]uint64)
	m.doc.Mem.LastStageAllocBytes = make(map[string]uint64)
	return m
}

// add is the one-line counter bump used throughout the service.
func (m *Metrics) add(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// snapshot copies the live document; the copy shares no map with it.
// workers/capacity and the disk entry count are owned elsewhere,
// passed in by the Service; the runtime gauges are read here.
func (m *Metrics) snapshot(workers, capacity, diskEntries int) MetricsSnapshot {
	m.mu.Lock()
	s := m.doc
	s.StageLatencyMS = maps.Clone(s.StageLatencyMS)
	s.Decisions = maps.Clone(s.Decisions)
	s.Mem.StageAllocBytes = maps.Clone(s.Mem.StageAllocBytes)
	s.Mem.LastStageAllocBytes = maps.Clone(s.Mem.LastStageAllocBytes)
	m.mu.Unlock()
	s.Queue.Workers, s.Queue.Capacity, s.Disk.Entries = workers, capacity, diskEntries
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Mem.HeapInuseBytes = ms.HeapInuse
	s.UptimeMS = time.Since(m.start).Milliseconds()
	s.Goroutines = runtime.NumGoroutine()
	return s
}

// observer records one solve into m: each stage's wall time and
// allocation delta, the main pass's bytes per constraint node unless
// reused reports that a recorded outcome stood in for its solve, and
// the decision audit. Allocation deltas are process-wide TotalAlloc
// differences, so concurrent solves inflate each other's numbers: they
// size capacity, they do not attribute allocations exactly. Within a
// run the pipeline serializes callbacks, but the mutex keeps the
// sampler correct under any future overlap.
func (m *Metrics) observer(reused func() bool) analysis.Observer {
	var (
		mu      sync.Mutex
		atStart uint64 // TotalAlloc when the current stage began
	)
	return analysis.ObserverFuncs{
		OnStageStart: func(string) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mu.Lock()
			atStart = ms.TotalAlloc
			mu.Unlock()
		},
		OnStageFinish: func(stage string, st analysis.Stats, err error) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mu.Lock()
			delta := ms.TotalAlloc - atStart
			mu.Unlock()
			m.mu.Lock()
			defer m.mu.Unlock()
			h := m.doc.StageLatencyMS[stage]
			h.observe(st.Wall)
			m.doc.StageLatencyMS[stage] = h
			if err != nil {
				return
			}
			m.doc.Mem.StageAllocBytes[stage] += delta
			m.doc.Mem.LastStageAllocBytes[stage] = delta
			if stage == analysis.StageMainPass && st.Nodes > 0 && !reused() {
				m.doc.Mem.BytesPerNode = delta / uint64(st.Nodes)
			}
		},
		OnDecisions: func(_ string, ds []introspect.Decision) {
			m.mu.Lock()
			for _, d := range ds {
				m.doc.Decisions[d.Metric+"|"+d.Verdict]++
			}
			m.mu.Unlock()
		},
	}
}

// WritePrometheus renders the service metrics in the Prometheus text
// exposition format: the document GET /metrics serves as JSON, under
// stable metric names. cmd/ptad serves this when a scraper asks for it
// (Accept: text/plain / application/openmetrics-text, or
// ?format=prometheus).
func (s *Service) WritePrometheus(w io.Writer) error {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return writePrometheus(w, s.Metrics(), obs.Labels{"go_version": runtime.Version(), "version": version})
}

// promSample is one sample of an exposition family; an unlabelled
// family has one, with nil labels.
type promSample struct {
	labels obs.Labels
	v      float64
}

// writePrometheus renders s, with build as the labels of
// ptad_build_info: one family per row, in row order, then the stage
// latency histograms. A family whose name ends in _total is a counter,
// any other a gauge.
//
// The names, help strings and label sets are a compatibility surface
// (dashboards and alerts reference them, and the exposition golden
// test pins them): add rows freely, rename existing ones never.
func writePrometheus(w io.Writer, s MetricsSnapshot, build obs.Labels) error {
	p := obs.NewPromWriter(w)
	for _, r := range []struct {
		name, help string
		samples    []promSample
	}{
		{"ptad_requests_total", "Analysis requests received.", one(s.Requests)},
		{"ptad_cache_hits_total", "Requests served from the result cache.", one(s.Cache.Hits)},
		{"ptad_cache_misses_total", "Requests that required a solve.", one(s.Cache.Misses)},
		{"ptad_cache_dedup_total", "Requests coalesced onto an identical in-flight solve.", one(s.Cache.Dedup)},
		{"ptad_solves_total", "Completed solver runs.", one(s.Solves)},
		{"ptad_pre_pass_shared_total", "Introspective runs that reused a cached insensitive pre-pass.", one(s.PrePassShared)},
		{"ptad_main_pass_shared_total", "Introspective runs that reused a main pass of the same refinement.", one(s.MainPassShared)},
		{"ptad_rejected_invalid_total", "Requests rejected as invalid (HTTP 400).", one(s.Rejected.Invalid)},
		{"ptad_rejected_overload_total", "Requests shed by admission control (HTTP 429).", one(s.Rejected.Overload)},
		{"ptad_timeouts_total", "Requests whose deadline expired (HTTP 504).", one(s.Timeouts)},
		{"ptad_internal_errors_total", "Requests failed by internal errors (HTTP 500).", one(s.InternalErrs)},
		{"ptad_disk_hits_total", "Cache hits served from the durable result store.", one(s.Disk.Hits)},
		{"ptad_disk_writes_total", "Results spilled to the durable result store.", one(s.Disk.Writes)},
		{"ptad_disk_corrupt_total", "Durable store files rejected by verify-on-read.", one(s.Disk.Corrupt)},
		{"ptad_streams_total", "Streaming analyze responses served.", one(s.Streams)},
		{"ptad_in_flight", "Solves currently holding a worker slot.", one(s.Queue.InFlight)},
		{"ptad_queued", "Admitted requests waiting for a worker slot.", one(s.Queue.Depth)},
		{"ptad_workers", "Configured worker-pool size.", one(s.Queue.Workers)},
		{"ptad_capacity", "Admission capacity (workers + queue depth).", one(s.Queue.Capacity)},
		{"ptad_disk_entries", "Entries in the durable result store.", one(s.Disk.Entries)},
		{"ptad_intro_decisions_total", "Introspection refine/demote decisions, by metric clause and verdict.", labelled(s.Decisions, "metric", "verdict")},
		{"ptad_stage_alloc_bytes_total", "Cumulative bytes allocated per pipeline stage (process-wide deltas).", labelled(s.Mem.StageAllocBytes, "stage")},
		{"ptad_stage_alloc_last_bytes", "Most recent solve's allocation delta per pipeline stage.", labelled(s.Mem.LastStageAllocBytes, "stage")},
		{"ptad_bytes_per_constraint_node", "Latest main-pass allocation divided by its constraint-node count.", one(s.Mem.BytesPerNode)},
		{"ptad_build_info", "Build metadata; value is always 1.", []promSample{{build, 1}}},
		{"ptad_uptime_seconds", "Seconds since the service started.", one(float64(s.UptimeMS) / 1000)},
		{"ptad_goroutines", "Live goroutine count.", one(s.Goroutines)},
		{"ptad_heap_inuse_bytes", "Bytes in in-use heap spans (runtime.MemStats.HeapInuse).", one(s.Mem.HeapInuseBytes)},
	} {
		family := p.GaugeFamily
		if strings.HasSuffix(r.name, "_total") {
			family = p.CounterFamily
		}
		f := family(r.name, r.help)
		for _, x := range r.samples {
			f.Series(x.labels, x.v)
		}
	}
	h := p.HistogramFamily("ptad_stage_latency_ms", "Pipeline stage wall time in milliseconds.")
	for _, stage := range sortedKeys(s.StageLatencyMS) {
		x := s.StageLatencyMS[stage]
		h.Series(obs.Labels{"stage": stage}, histBoundsMS[:], x.Counts[:], x.Sum, x.N)
	}
	return p.Err()
}

// one is the single unlabelled sample of a family.
func one[T uint64 | int | float64](v T) []promSample {
	return []promSample{{nil, float64(v)}}
}

// labelled is one sample per key of m, in key order. A key holds the
// values of names joined by "|", as decision keys do.
func labelled(m map[string]uint64, names ...string) []promSample {
	out := make([]promSample, 0, len(m))
	for _, k := range sortedKeys(m) {
		ls := obs.Labels{}
		for i, v := range strings.SplitN(k, "|", len(names)) {
			ls[names[i]] = v
		}
		out = append(out, promSample{ls, float64(m[k])})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
