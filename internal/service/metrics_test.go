package service

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"introspect/internal/obs"
)

// TestPrometheusExpositionGolden pins the exposition byte-for-byte:
// metric names, HELP strings, label sets, and bucket layout are a
// compatibility surface for dashboards and alerts. If this test fails
// because you renamed or dropped a metric, that is the bug — add new
// metrics instead.
func TestPrometheusExpositionGolden(t *testing.T) {
	m := newMetrics()
	d := &m.doc
	d.Requests = 7
	d.Cache.Hits = 2
	d.Cache.Misses = 4
	d.Cache.Dedup = 1
	d.Solves = 4
	d.PrePassShared = 1
	d.Rejected.Invalid = 1
	d.Rejected.Overload = 2
	d.Timeouts = 1
	d.Disk.Hits = 1
	d.Disk.Writes = 3
	d.Streams = 2
	d.Queue.InFlight = 1
	d.Queue.Depth = 2
	// Deterministic bucket placement: 7ms → le=10, 40ms → le=50,
	// 0.5ms → le=1.
	addLatency(m, "main-pass", 7*time.Millisecond)
	addLatency(m, "main-pass", 40*time.Millisecond)
	addLatency(m, "pre-pass", 500*time.Microsecond)
	d.Decisions["in-flow|demote"] = 3
	d.Decisions["in-flow|refine"] = 11
	d.Decisions["total-field-points-to*pointed-by-vars|demote"] = 2
	d.Mem.StageAllocBytes["main-pass"] = 1048576
	d.Mem.StageAllocBytes["pre-pass"] = 524288
	d.Mem.LastStageAllocBytes["main-pass"] = 262144
	d.Mem.LastStageAllocBytes["pre-pass"] = 131072
	d.Mem.BytesPerNode = 512

	if got := exposition(t, fixedSnapshot(m, 4, 20, 12, 42500, 12, 8388608)); got != promGolden {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, promGolden)
	}
}

// addLatency records one stage wall time, as a solve's observer does.
func addLatency(m *Metrics, stage string, wall time.Duration) {
	h := m.doc.StageLatencyMS[stage]
	h.observe(wall)
	m.doc.StageLatencyMS[stage] = h
}

// fixedSnapshot is m's snapshot with the values owned elsewhere and
// the runtime gauges fixed, so the renderings are deterministic.
func fixedSnapshot(m *Metrics, workers, capacity, diskEntries int, uptimeMS int64, goroutines int, heapInuse uint64) MetricsSnapshot {
	s := m.snapshot(workers, capacity, diskEntries)
	s.UptimeMS, s.Goroutines, s.Mem.HeapInuseBytes = uptimeMS, goroutines, heapInuse
	return s
}

// exposition renders s with fixed build labels.
func exposition(t *testing.T, s MetricsSnapshot) string {
	t.Helper()
	var sb strings.Builder
	if err := writePrometheus(&sb, s, obs.Labels{"go_version": "go1.23.0", "version": "(devel)"}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricsDistinctValues gives every counter and gauge its own
// non-zero value, so a rendering that reads the wrong field cannot
// pass: it pins the JSON /metrics document (indented, which pins the
// compact bytes too) and every unlabelled sample of the exposition.
func TestMetricsDistinctValues(t *testing.T) {
	m := newMetrics()
	d := &m.doc
	d.Requests = 11
	d.Cache.Hits = 12
	d.Cache.Misses = 13
	d.Cache.Dedup = 14
	d.Solves = 15
	d.PrePassShared = 16
	d.Rejected.Invalid = 17
	d.Rejected.Overload = 18
	d.Timeouts = 19
	d.InternalErrs = 20
	d.Disk.Hits = 21
	d.Disk.Writes = 22
	d.Disk.Corrupt = 23
	d.Streams = 26
	d.Queue.InFlight = 27
	d.Queue.Depth = 28
	d.Mem.BytesPerNode = 32
	addLatency(m, "main-pass", 3*time.Millisecond)
	addLatency(m, "pre-pass", 700*time.Millisecond)
	d.Decisions["in-flow|demote"] = 36
	d.Decisions["in-flow|refine"] = 37
	d.Mem.StageAllocBytes["main-pass"] = 38
	d.Mem.StageAllocBytes["pre-pass"] = 39
	d.Mem.LastStageAllocBytes["main-pass"] = 40
	d.Mem.LastStageAllocBytes["pre-pass"] = 41

	s := fixedSnapshot(m, 29, 30, 31, 33500, 34, 35)
	// The copy shares no map or bucket array with the live document.
	addLatency(m, "main-pass", time.Millisecond)
	d.Decisions["in-flow|demote"]++
	d.Mem.StageAllocBytes["main-pass"]++
	d.Mem.LastStageAllocBytes["main-pass"]++
	doc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(doc); got != distinctJSON {
		t.Errorf("JSON document drifted.\n--- got ---\n%s\n--- want ---\n%s", got, distinctJSON)
	}

	var samples []string
	for _, line := range strings.Split(exposition(t, s), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "{") {
			samples = append(samples, line)
		}
	}
	if got := strings.Join(samples, "\n"); got != distinctSamples {
		t.Errorf("unlabelled samples drifted.\n--- got ---\n%s\n--- want ---\n%s", got, distinctSamples)
	}
}

const distinctJSON = `{
  "requests": 11,
  "cache": {
    "hits": 12,
    "misses": 13,
    "dedup": 14
  },
  "disk": {
    "hits": 21,
    "writes": 22,
    "corrupt": 23,
    "entries": 31
  },
  "solves": 15,
  "pre_pass_shared": 16,
  "streams": 26,
  "rejected": {
    "invalid": 17,
    "overload": 18
  },
  "timeouts": 19,
  "internal_errors": 20,
  "queue": {
    "in_flight": 27,
    "depth": 28,
    "workers": 29,
    "capacity": 30
  },
  "stage_latency_ms": {
    "main-pass": {
      "count": 1,
      "sum_ms": 3,
      "buckets": {
        "le_1": 0,
        "le_10": 1,
        "le_100": 1,
        "le_1000": 1,
        "le_10000": 1,
        "le_2": 0,
        "le_25": 1,
        "le_250": 1,
        "le_2500": 1,
        "le_30000": 1,
        "le_5": 1,
        "le_50": 1,
        "le_500": 1,
        "le_5000": 1,
        "le_inf": 1
      }
    },
    "pre-pass": {
      "count": 1,
      "sum_ms": 700,
      "buckets": {
        "le_1": 0,
        "le_10": 0,
        "le_100": 0,
        "le_1000": 1,
        "le_10000": 1,
        "le_2": 0,
        "le_25": 0,
        "le_250": 0,
        "le_2500": 1,
        "le_30000": 1,
        "le_5": 0,
        "le_50": 0,
        "le_500": 0,
        "le_5000": 1,
        "le_inf": 1
      }
    }
  },
  "decisions": {
    "in-flow|demote": 36,
    "in-flow|refine": 37
  },
  "mem": {
    "stage_alloc_bytes": {
      "main-pass": 38,
      "pre-pass": 39
    },
    "last_stage_alloc_bytes": {
      "main-pass": 40,
      "pre-pass": 41
    },
    "bytes_per_node": 32,
    "heap_inuse_bytes": 35
  },
  "uptime_ms": 33500,
  "goroutines": 34
}`

const distinctSamples = `ptad_requests_total 11
ptad_cache_hits_total 12
ptad_cache_misses_total 13
ptad_cache_dedup_total 14
ptad_solves_total 15
ptad_pre_pass_shared_total 16
ptad_rejected_invalid_total 17
ptad_rejected_overload_total 18
ptad_timeouts_total 19
ptad_internal_errors_total 20
ptad_disk_hits_total 21
ptad_disk_writes_total 22
ptad_disk_corrupt_total 23
ptad_streams_total 26
ptad_in_flight 27
ptad_queued 28
ptad_workers 29
ptad_capacity 30
ptad_disk_entries 31
ptad_bytes_per_constraint_node 32
ptad_uptime_seconds 33.5
ptad_goroutines 34
ptad_heap_inuse_bytes 35`

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
