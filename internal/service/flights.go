package service

import (
	"sort"
	"sync"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	ptav1 "introspect/pta/v1"
)

// flight is one admitted solve: its single-flight outcome and its
// live-progress record, which GET /v1/flights reports. The first
// request for a key becomes the owner, creates the flight and solves;
// identical concurrent requests wait on done and share the outcome.
// The identity fields are set at creation; stage and snapshot are
// updated from the solve's observer callbacks under the flight's own
// mutex, so a heartbeat write never contends with the service lock.
type flight struct {
	id         uint64
	program    string
	spec       string
	provenance bool
	started    time.Time

	done chan struct{}
	resp *analysis.RunJSON
	err  *Error

	mu     sync.Mutex
	stage  string
	snap   pta.Snapshot
	snapAt time.Time // zero until the first snapshot arrives
}

func (f *flight) setStage(stage string) {
	f.mu.Lock()
	f.stage = stage
	f.mu.Unlock()
}

func (f *flight) setSnapshot(snap pta.Snapshot) {
	f.mu.Lock()
	f.snap = snap
	f.snapAt = time.Now()
	f.mu.Unlock()
}

// observer feeds the flight record from the pipeline's callbacks.
func (f *flight) observer() analysis.Observer {
	return analysis.ObserverFuncs{
		OnStageStart:    f.setStage,
		OnSolveSnapshot: func(_ string, snap pta.Snapshot) { f.setSnapshot(snap) },
	}
}

// FlightInfo is one in-flight request as reported by GET /v1/flights.
// The wire shape lives in the public pta/v1 package with the rest of
// the API types.
type FlightInfo = ptav1.FlightInfo

// Flights reports the currently admitted solves, oldest first. Fast
// and lock-light: callers may poll it at heartbeat frequency.
func (s *Service) Flights() []FlightInfo {
	s.mu.Lock()
	fls := make([]*flight, 0, len(s.flights))
	for _, f := range s.flights {
		fls = append(fls, f)
	}
	s.mu.Unlock()
	sort.Slice(fls, func(i, j int) bool { return fls[i].id < fls[j].id })

	now := time.Now()
	out := make([]FlightInfo, len(fls))
	for i, f := range fls {
		f.mu.Lock()
		info := FlightInfo{
			ID:         f.id,
			Program:    f.program,
			Spec:       f.spec,
			Provenance: f.provenance,
			AgeMS:      now.Sub(f.started).Milliseconds(),
			Stage:      f.stage,
		}
		if !f.snapAt.IsZero() {
			snap := f.snap
			info.Snapshot = &snap
			info.SnapshotAgeMS = now.Sub(f.snapAt).Milliseconds()
		}
		f.mu.Unlock()
		out[i] = info
	}
	return out
}
