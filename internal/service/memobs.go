package service

import (
	"runtime"
	"sync"

	"introspect/internal/analysis"
)

// allocObserver samples runtime.MemStats at stage boundaries and
// reports each stage's allocation delta — and, for the main pass, the
// bytes-per-constraint-node figure — to m. One is composed into each
// solve's observer chain; within a run the pipeline serializes
// callbacks, but the mutex keeps the sampler correct under any future
// overlap. TotalAlloc is process-wide, so concurrent solves inflate
// each other's deltas; the numbers size capacity, they do not
// attribute allocations exactly.
func allocObserver(m *Metrics) analysis.Observer {
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
			if err != nil {
				return
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mu.Lock()
			delta := ms.TotalAlloc - atStart
			mu.Unlock()
			nodes := 0
			if stage == analysis.StageMainPass {
				nodes = st.Nodes
			}
			m.observeStageAlloc(stage, delta, nodes)
		},
	}
}
