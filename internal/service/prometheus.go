package service

import (
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"introspect/internal/obs"
)

// WritePrometheus renders the service metrics in the Prometheus text
// exposition format — the same registry GET /metrics serves as JSON,
// mapped to stable metric names. cmd/ptad serves this when a scraper
// asks for it (Accept: text/plain / application/openmetrics-text, or
// ?format=prometheus).
//
// The metric names and label sets below are a compatibility surface
// (dashboards and alerts reference them); the exposition golden test
// pins them. Add new metrics freely, rename existing ones never.
func (s *Service) WritePrometheus(w io.Writer) error {
	return s.metrics.writePrometheus(w, s.cfg.Workers, s.cfg.Workers+s.cfg.QueueDepth, s.store.len(), collectProcStats(s.metrics))
}

// procStats are the process-level gauge values. The caller collects
// them so writePrometheus stays a pure function of its inputs and the
// golden test can pin the exposition byte-for-byte with fixed values.
type procStats struct {
	goVersion  string
	version    string
	uptimeSec  float64
	goroutines int
	heapInuse  uint64
}

func collectProcStats(m *Metrics) procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return procStats{
		goVersion:  runtime.Version(),
		version:    version,
		uptimeSec:  time.Since(m.start).Seconds(),
		goroutines: runtime.NumGoroutine(),
		heapInuse:  ms.HeapInuse,
	}
}

func (m *Metrics) writePrometheus(w io.Writer, workers, capacity, diskEntries int, proc procStats) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := obs.NewPromWriter(w)

	p.Counter("ptad_requests_total", "Analysis requests received.", float64(m.requests))
	p.Counter("ptad_cache_hits_total", "Requests served from the result cache.", float64(m.cacheHits))
	p.Counter("ptad_cache_misses_total", "Requests that required a solve.", float64(m.cacheMisses))
	p.Counter("ptad_cache_dedup_total", "Requests coalesced onto an identical in-flight solve.", float64(m.dedups))
	p.Counter("ptad_solves_total", "Completed solver runs.", float64(m.solves))
	p.Counter("ptad_pre_pass_shared_total", "Introspective runs that reused a cached insensitive pre-pass.", float64(m.prePassShared))
	p.Counter("ptad_rejected_invalid_total", "Requests rejected as invalid (HTTP 400).", float64(m.rejectedInvalid))
	p.Counter("ptad_rejected_overload_total", "Requests shed by admission control (HTTP 429).", float64(m.rejectedLoad))
	p.Counter("ptad_timeouts_total", "Requests whose deadline expired (HTTP 504).", float64(m.timeouts))
	p.Counter("ptad_internal_errors_total", "Requests failed by internal errors (HTTP 500).", float64(m.internalErrs))
	p.Counter("ptad_disk_hits_total", "Cache hits served from the durable result store.", float64(m.diskHits))
	p.Counter("ptad_disk_writes_total", "Results spilled to the durable result store.", float64(m.diskWrites))
	p.Counter("ptad_disk_corrupt_total", "Durable store files rejected by verify-on-read.", float64(m.diskCorrupt))
	p.Counter("ptad_batches_total", "Batch requests received.", float64(m.batches))
	p.Counter("ptad_batch_jobs_total", "Jobs submitted through batch requests.", float64(m.batchJobs))
	p.Counter("ptad_streams_total", "Streaming analyze responses served.", float64(m.streams))

	p.Gauge("ptad_in_flight", "Solves currently holding a worker slot.", float64(m.inFlight))
	p.Gauge("ptad_queued", "Admitted requests waiting for a worker slot.", float64(m.queued))
	p.Gauge("ptad_workers", "Configured worker-pool size.", float64(workers))
	p.Gauge("ptad_capacity", "Admission capacity (workers + queue depth).", float64(capacity))
	p.Gauge("ptad_disk_entries", "Entries in the durable result store.", float64(diskEntries))

	dec := p.CounterFamily("ptad_intro_decisions_total", "Introspection refine/demote decisions, by metric clause and verdict.")
	for _, k := range sortedKeys(m.decisions) {
		metric, verdict, _ := strings.Cut(k, "|")
		dec.Series(obs.Labels{"metric": metric, "verdict": verdict}, float64(m.decisions[k]))
	}

	alloc := p.CounterFamily("ptad_stage_alloc_bytes_total", "Cumulative bytes allocated per pipeline stage (process-wide deltas).")
	for _, st := range sortedKeys(m.stageAllocBytes) {
		alloc.Series(obs.Labels{"stage": st}, float64(m.stageAllocBytes[st]))
	}
	lastAlloc := p.GaugeFamily("ptad_stage_alloc_last_bytes", "Most recent solve's allocation delta per pipeline stage.")
	for _, st := range sortedKeys(m.stageLastAllocBytes) {
		lastAlloc.Series(obs.Labels{"stage": st}, float64(m.stageLastAllocBytes[st]))
	}
	p.Gauge("ptad_bytes_per_constraint_node", "Latest main-pass allocation divided by its constraint-node count.", float64(m.bytesPerNode))

	info := p.GaugeFamily("ptad_build_info", "Build metadata; value is always 1.")
	info.Series(obs.Labels{"go_version": proc.goVersion, "version": proc.version}, 1)
	p.Gauge("ptad_uptime_seconds", "Seconds since the service started.", proc.uptimeSec)
	p.Gauge("ptad_goroutines", "Live goroutine count.", float64(proc.goroutines))
	p.Gauge("ptad_heap_inuse_bytes", "Bytes in in-use heap spans (runtime.MemStats.HeapInuse).", float64(proc.heapInuse))

	stages := make([]string, 0, len(m.stageLatency))
	for stage := range m.stageLatency {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	h := p.HistogramFamily("ptad_stage_latency_ms", "Pipeline stage wall time in milliseconds.")
	for _, stage := range stages {
		hist := m.stageLatency[stage]
		h.Series(obs.Labels{"stage": stage}, histBoundsMS, hist.Counts, hist.Sum, hist.N)
	}
	return p.Err()
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
