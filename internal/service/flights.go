package service

import (
	"sort"
	"sync"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	ptav1 "introspect/pta/v1"
)

// flightMeta is the live-progress record of one admitted solve: what
// GET /v1/flights reports. The immutable identity fields are set at
// registration; stage and snapshot are updated from the solve's
// observer callbacks under the record's own mutex, so a heartbeat
// write never contends with the service lock.
type flightMeta struct {
	id         uint64
	program    string
	spec       string
	provenance bool
	started    time.Time

	mu     sync.Mutex
	stage  string
	snap   pta.Snapshot
	snapAt time.Time // zero until the first snapshot arrives
}

func (f *flightMeta) setStage(stage string) {
	f.mu.Lock()
	f.stage = stage
	f.mu.Unlock()
}

func (f *flightMeta) setSnapshot(snap pta.Snapshot) {
	f.mu.Lock()
	f.snap = snap
	f.snapAt = time.Now()
	f.mu.Unlock()
}

// observer feeds the flight record from the pipeline's callbacks.
func (f *flightMeta) observer() analysis.Observer {
	return analysis.ObserverFuncs{
		OnStageStart:    f.setStage,
		OnSolveSnapshot: func(_ string, snap pta.Snapshot) { f.setSnapshot(snap) },
	}
}

// registerFlight adds a record for one admitted solve; the caller must
// deregister it (deferred) when the solve returns.
func (s *Service) registerFlight(req Request) *flightMeta {
	fl := &flightMeta{
		program:    req.Name,
		spec:       req.Job.Spec,
		provenance: req.Provenance,
		started:    time.Now(),
		stage:      "queued",
	}
	s.mu.Lock()
	s.flightSeq++
	fl.id = s.flightSeq
	if s.active == nil {
		s.active = make(map[uint64]*flightMeta)
	}
	s.active[fl.id] = fl
	s.mu.Unlock()
	return fl
}

func (s *Service) deregisterFlight(fl *flightMeta) {
	s.mu.Lock()
	delete(s.active, fl.id)
	s.mu.Unlock()
}

// FlightInfo is one in-flight request as reported by GET /v1/flights.
// The wire shape lives in the public pta/v1 package with the rest of
// the API types.
type FlightInfo = ptav1.FlightInfo

// Flights reports the currently admitted solves, oldest first. Fast
// and lock-light: callers may poll it at heartbeat frequency.
func (s *Service) Flights() []FlightInfo {
	s.mu.Lock()
	metas := make([]*flightMeta, 0, len(s.active))
	for _, fl := range s.active {
		metas = append(metas, fl)
	}
	s.mu.Unlock()
	sort.Slice(metas, func(i, j int) bool { return metas[i].id < metas[j].id })

	now := time.Now()
	out := make([]FlightInfo, len(metas))
	for i, fl := range metas {
		fl.mu.Lock()
		info := FlightInfo{
			ID:         fl.id,
			Program:    fl.program,
			Spec:       fl.spec,
			Provenance: fl.provenance,
			AgeMS:      now.Sub(fl.started).Milliseconds(),
			Stage:      fl.stage,
		}
		if !fl.snapAt.IsZero() {
			snap := fl.snap
			info.Snapshot = &snap
			info.SnapshotAgeMS = now.Sub(fl.snapAt).Milliseconds()
		}
		fl.mu.Unlock()
		out[i] = info
	}
	return out
}
