package service

import (
	"strings"
	"testing"
	"time"
)

// TestPrometheusExpositionGolden pins the exposition byte-for-byte:
// metric names, HELP strings, label sets, and bucket layout are a
// compatibility surface for dashboards and alerts. If this test fails
// because you renamed or dropped a metric, that is the bug — add new
// metrics instead.
func TestPrometheusExpositionGolden(t *testing.T) {
	m := newMetrics()
	m.requests = 7
	m.cacheHits = 2
	m.cacheMisses = 4
	m.dedups = 1
	m.solves = 4
	m.prePassShared = 1
	m.rejectedInvalid = 1
	m.rejectedLoad = 2
	m.timeouts = 1
	m.diskHits = 1
	m.diskWrites = 3
	m.batches = 1
	m.batchJobs = 9
	m.streams = 2
	m.inFlight = 1
	m.queued = 2
	// Deterministic bucket placement: 7ms → le=10, 40ms → le=50,
	// 0.5ms → le=1.
	m.observeStage("main-pass", 7*time.Millisecond)
	m.observeStage("main-pass", 40*time.Millisecond)
	m.observeStage("pre-pass", 500*time.Microsecond)
	m.decisions["in-flow|demote"] = 3
	m.decisions["in-flow|refine"] = 11
	m.decisions["total-field-points-to*pointed-by-vars|demote"] = 2
	m.stageAllocBytes["main-pass"] = 1048576
	m.stageAllocBytes["pre-pass"] = 524288
	m.stageLastAllocBytes["main-pass"] = 262144
	m.stageLastAllocBytes["pre-pass"] = 131072
	m.bytesPerNode = 512
	// Fixed process stats keep the golden deterministic; the live
	// values are collected by WritePrometheus (collectProcStats).
	proc := procStats{goVersion: "go1.23.0", version: "(devel)", uptimeSec: 42.5, goroutines: 12, heapInuse: 8388608}

	var sb strings.Builder
	if err := m.writePrometheus(&sb, 4, 20, 12, proc); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != promGolden {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, promGolden)
	}
}

const promGolden = `# HELP ptad_requests_total Analysis requests received.
# TYPE ptad_requests_total counter
ptad_requests_total 7
# HELP ptad_cache_hits_total Requests served from the result cache.
# TYPE ptad_cache_hits_total counter
ptad_cache_hits_total 2
# HELP ptad_cache_misses_total Requests that required a solve.
# TYPE ptad_cache_misses_total counter
ptad_cache_misses_total 4
# HELP ptad_cache_dedup_total Requests coalesced onto an identical in-flight solve.
# TYPE ptad_cache_dedup_total counter
ptad_cache_dedup_total 1
# HELP ptad_solves_total Completed solver runs.
# TYPE ptad_solves_total counter
ptad_solves_total 4
# HELP ptad_pre_pass_shared_total Introspective runs that reused a cached insensitive pre-pass.
# TYPE ptad_pre_pass_shared_total counter
ptad_pre_pass_shared_total 1
# HELP ptad_rejected_invalid_total Requests rejected as invalid (HTTP 400).
# TYPE ptad_rejected_invalid_total counter
ptad_rejected_invalid_total 1
# HELP ptad_rejected_overload_total Requests shed by admission control (HTTP 429).
# TYPE ptad_rejected_overload_total counter
ptad_rejected_overload_total 2
# HELP ptad_timeouts_total Requests whose deadline expired (HTTP 504).
# TYPE ptad_timeouts_total counter
ptad_timeouts_total 1
# HELP ptad_internal_errors_total Requests failed by internal errors (HTTP 500).
# TYPE ptad_internal_errors_total counter
ptad_internal_errors_total 0
# HELP ptad_disk_hits_total Cache hits served from the durable result store.
# TYPE ptad_disk_hits_total counter
ptad_disk_hits_total 1
# HELP ptad_disk_writes_total Results spilled to the durable result store.
# TYPE ptad_disk_writes_total counter
ptad_disk_writes_total 3
# HELP ptad_disk_corrupt_total Durable store files rejected by verify-on-read.
# TYPE ptad_disk_corrupt_total counter
ptad_disk_corrupt_total 0
# HELP ptad_batches_total Batch requests received.
# TYPE ptad_batches_total counter
ptad_batches_total 1
# HELP ptad_batch_jobs_total Jobs submitted through batch requests.
# TYPE ptad_batch_jobs_total counter
ptad_batch_jobs_total 9
# HELP ptad_streams_total Streaming analyze responses served.
# TYPE ptad_streams_total counter
ptad_streams_total 2
# HELP ptad_in_flight Solves currently holding a worker slot.
# TYPE ptad_in_flight gauge
ptad_in_flight 1
# HELP ptad_queued Admitted requests waiting for a worker slot.
# TYPE ptad_queued gauge
ptad_queued 2
# HELP ptad_workers Configured worker-pool size.
# TYPE ptad_workers gauge
ptad_workers 4
# HELP ptad_capacity Admission capacity (workers + queue depth).
# TYPE ptad_capacity gauge
ptad_capacity 20
# HELP ptad_disk_entries Entries in the durable result store.
# TYPE ptad_disk_entries gauge
ptad_disk_entries 12
# HELP ptad_intro_decisions_total Introspection refine/demote decisions, by metric clause and verdict.
# TYPE ptad_intro_decisions_total counter
ptad_intro_decisions_total{metric="in-flow",verdict="demote"} 3
ptad_intro_decisions_total{metric="in-flow",verdict="refine"} 11
ptad_intro_decisions_total{metric="total-field-points-to*pointed-by-vars",verdict="demote"} 2
# HELP ptad_stage_alloc_bytes_total Cumulative bytes allocated per pipeline stage (process-wide deltas).
# TYPE ptad_stage_alloc_bytes_total counter
ptad_stage_alloc_bytes_total{stage="main-pass"} 1048576
ptad_stage_alloc_bytes_total{stage="pre-pass"} 524288
# HELP ptad_stage_alloc_last_bytes Most recent solve's allocation delta per pipeline stage.
# TYPE ptad_stage_alloc_last_bytes gauge
ptad_stage_alloc_last_bytes{stage="main-pass"} 262144
ptad_stage_alloc_last_bytes{stage="pre-pass"} 131072
# HELP ptad_bytes_per_constraint_node Latest main-pass allocation divided by its constraint-node count.
# TYPE ptad_bytes_per_constraint_node gauge
ptad_bytes_per_constraint_node 512
# HELP ptad_build_info Build metadata; value is always 1.
# TYPE ptad_build_info gauge
ptad_build_info{go_version="go1.23.0",version="(devel)"} 1
# HELP ptad_uptime_seconds Seconds since the service started.
# TYPE ptad_uptime_seconds gauge
ptad_uptime_seconds 42.5
# HELP ptad_goroutines Live goroutine count.
# TYPE ptad_goroutines gauge
ptad_goroutines 12
# HELP ptad_heap_inuse_bytes Bytes in in-use heap spans (runtime.MemStats.HeapInuse).
# TYPE ptad_heap_inuse_bytes gauge
ptad_heap_inuse_bytes 8388608
# HELP ptad_stage_latency_ms Pipeline stage wall time in milliseconds.
# TYPE ptad_stage_latency_ms histogram
ptad_stage_latency_ms_bucket{stage="main-pass",le="1"} 0
ptad_stage_latency_ms_bucket{stage="main-pass",le="2"} 0
ptad_stage_latency_ms_bucket{stage="main-pass",le="5"} 0
ptad_stage_latency_ms_bucket{stage="main-pass",le="10"} 1
ptad_stage_latency_ms_bucket{stage="main-pass",le="25"} 1
ptad_stage_latency_ms_bucket{stage="main-pass",le="50"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="100"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="250"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="500"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="1000"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="2500"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="5000"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="10000"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="30000"} 2
ptad_stage_latency_ms_bucket{stage="main-pass",le="+Inf"} 2
ptad_stage_latency_ms_sum{stage="main-pass"} 47
ptad_stage_latency_ms_count{stage="main-pass"} 2
ptad_stage_latency_ms_bucket{stage="pre-pass",le="1"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="2"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="5"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="10"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="25"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="50"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="100"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="250"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="500"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="1000"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="2500"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="5000"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="10000"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="30000"} 1
ptad_stage_latency_ms_bucket{stage="pre-pass",le="+Inf"} 1
ptad_stage_latency_ms_sum{stage="pre-pass"} 0.5
ptad_stage_latency_ms_count{stage="pre-pass"} 1
`
