// Package service is the daemon half of the analysis layer: it wraps
// internal/analysis in the machinery a long-running server needs —
// request validation, a content-addressed result cache, single-flight
// deduplication of identical in-flight requests, and an admission
// controller with a bounded worker pool, a bounded queue, and
// per-request deadlines. cmd/ptad is its HTTP frontend; the package
// itself is transport-agnostic and fully testable in-process.
//
// # Caching
//
// Results are cached under a content-addressed key: the SHA-256 of the
// program source (plus language and name) crossed with the Job's
// canonical JSON encoding, the resolved work budget, and the
// provenance flag. The solver is deterministic, so everything that can
// change the output is in the key and nothing else is — including
// budget-exhausted outcomes, which for a fixed budget are exactly as
// deterministic as completed ones. Deadline expiries are the one
// nondeterministic outcome (they depend on wall-clock scheduling) and
// are never cached. The program's SHA-256 is computed once per program:
// a request finds a known program by its exact source, so no hash
// collision can alias two programs in memory.
//
// Parsed programs are cached separately and shared by pointer, which
// additionally lets one request's context-insensitive result serve as
// later introspective requests' injected pre-pass
// (analysis.Request.First): after an "insens" request for a program, a
// "2objH-IntroA" request for the same source skips its pre-pass solve
// entirely. This is sound because the pre-pass is a pure function of
// the program — see DESIGN.md for the argument.
//
// # Admission
//
// At most Workers solves run concurrently; at most QueueDepth more may
// wait. A request arriving beyond that is rejected immediately with
// CodeOverloaded (HTTP 429) having done no work — under overload the
// server stays responsive and sheds load instead of accumulating
// goroutines. Every request carries a deadline (default
// DefaultDeadline, capped at MaxDeadline) that covers queueing,
// deduplication waits, and its own solve; expiry surfaces as
// CodeDeadline (HTTP 504).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/ir"
	"introspect/internal/lang"
	"introspect/internal/obs"
	"introspect/internal/pta"
	ptav1 "introspect/pta/v1"
)

// Config sizes the service. The zero value is usable: every field has
// a sensible default, applied by New.
type Config struct {
	// Workers is the number of concurrent solves; <= 0 means
	// runtime.NumCPU().
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond those in flight; < 0 means 0 (no queue). Default 16.
	QueueDepth int
	// DefaultDeadline applies when a request names none. Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps request deadlines. Default 5m.
	MaxDeadline time.Duration
	// CacheEntries is the result LRU's capacity. Default 256; negative
	// disables result caching (program caching stays on).
	CacheEntries int
	// DefaultBudget is the per-pass work budget applied when a request
	// names none; 0 means pta.DefaultBudget.
	DefaultBudget int64
	// MaxSourceBytes caps request source size. Default 4 MiB.
	MaxSourceBytes int
	// SnapshotEvery is the solver work-unit interval between the
	// progress snapshots that feed GET /v1/flights (and the trace
	// ring). 0 means DefaultSnapshotEvery — denser than the solver
	// default so heartbeats stay fresh on exploding runs; negative
	// means the solver default (pta.DefaultSnapshotEvery).
	SnapshotEvery int64
	// Tracer, if non-nil, records every solve onto it: one track per
	// request with a span per pipeline stage and the sampled solver
	// snapshots as instant events. Give it a bounded ring (see
	// obs.NewTracer) — cmd/ptad exposes the retained window at its
	// debug listener's /debug/trace.
	Tracer *obs.Tracer
	// CacheDir, if non-empty, backs the result cache with a durable
	// on-disk store rooted there: results spill to content-addressed
	// JSON files (atomic writes, verified reads), and New rebuilds the
	// index from the directory, so a restarted daemon keeps its hits.
	CacheDir string
	// DiskEntries caps the on-disk store. 0 means DefaultDiskEntries;
	// negative disables the store even with CacheDir set.
	DiskEntries int
	// Logger, if non-nil, receives one structured access-log line per
	// /v1/* HTTP request (request ID, spec, cache status, queue wait,
	// status, latency). Nil means no request logging; the service
	// itself never logs anywhere else.
	Logger *obs.Logger
}

// DefaultSnapshotEvery is the service's default solver-snapshot
// interval: fine enough that a stuck or exploding request shows a
// fresh heartbeat within tens of milliseconds, coarse enough that the
// O(nodes) sample stays invisible next to the 2^20 work units it
// covers.
const DefaultSnapshotEvery int64 = 1 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = pta.DefaultBudget
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 4 << 20
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	} else if c.SnapshotEvery < 0 {
		c.SnapshotEvery = 0 // solver default
	}
	if c.DiskEntries == 0 {
		c.DiskEntries = DefaultDiskEntries
	} else if c.DiskEntries < 0 {
		c.DiskEntries = 0
	}
	return c
}

// Request is the wire shape of one analysis request — the public
// ptav1.AnalyzeRequest, aliased so in-process callers keep their
// spelling. Everything in it is plain data; the program travels as
// source text.
type Request = ptav1.AnalyzeRequest

// Service is the long-running analysis daemon's engine.
type Service struct {
	cfg     Config
	metrics *Metrics

	progs   progCache
	results *lru[*analysis.RunJSON]
	store   *diskStore // durable tier, nil without Config.CacheDir

	mu        sync.Mutex
	flights   map[string]*flight // by result key; see flights.go
	flightSeq uint64             // the last flight's id
	pending   int                // admitted requests not yet finished
	slots     chan struct{}      // worker pool: buffered to cfg.Workers
}

// New builds a Service. The returned service has no background
// goroutines of its own; it is garbage-collected when dropped. New
// fails only on an unusable CacheDir.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		metrics: newMetrics(),
		results: newLRU[*analysis.RunJSON](cfg.CacheEntries),
		flights: make(map[string]*flight),
		slots:   make(chan struct{}, cfg.Workers),
	}
	if cfg.CacheDir != "" && cfg.DiskEntries > 0 {
		store, err := openDiskStore(cfg.CacheDir, cfg.DiskEntries)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	return s, nil
}

// MustNew is New for configurations known valid at compile time
// (tests, examples); it panics on error.
func MustNew(cfg Config) *Service {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the resolved configuration (defaults applied).
func (s *Service) Config() Config { return s.cfg }

// Metrics returns the service's metrics snapshot.
func (s *Service) Metrics() MetricsSnapshot {
	return s.metrics.snapshot(s.cfg.Workers, s.cfg.Workers+s.cfg.QueueDepth, s.store.len())
}

// SpecList returns the /v1/specs document. The spec and variant lists
// come from the analysis registry (the single source of truth for
// spec names) and are sorted, so the document is stable across runs
// and cannot drift from what NewPipeline actually resolves; each
// spec's capability flags are computed by the registry itself
// (analysis.SpecCapabilities), so they cannot drift from what
// validation accepts.
func SpecList() ptav1.SpecsDoc {
	names := analysis.RegisteredSpecs()
	specs := make([]ptav1.SpecInfo, len(names))
	for i, n := range names {
		specs[i] = ptav1.SpecInfo{Name: n, Capabilities: analysis.SpecCapabilities(n)}
	}
	return ptav1.SpecsDoc{
		Schema:   ptav1.Schema,
		Specs:    specs,
		Variants: analysis.Variants(),
	}
}

// Analyze runs one request through validation, cache, single-flight,
// and admission. On success the returned document's Cache field says
// how it was satisfied: "hit" (served from cache), "miss" (this
// request solved), or "dedup" (an identical concurrent request
// solved). The error, when non-nil, is always a *Error.
func (s *Service) Analyze(ctx context.Context, req Request) (*analysis.RunJSON, *Error) {
	return s.analyze(ctx, req, nil)
}

// analyze is Analyze with an optional extra per-request observer:
// when this request ends up owning the solve, extra receives the
// pipeline callbacks (streaming uses this to feed events). Cache hits
// and deduplicated waits produce no callbacks — there is no solve to
// observe.
func (s *Service) analyze(ctx context.Context, req Request, extra analysis.Observer) (_ *analysis.RunJSON, serr *Error) {
	s.metrics.add(&s.metrics.doc.Requests)
	// Every 400 and 504 is counted here, once per request. Both can
	// come out of the detached solve: a source that does not parse, and
	// the deadline, which the solve shares with this request. Counting
	// there would miss the waiters' 400s and count one expiry twice.
	defer func() {
		switch {
		case serr == nil:
		case serr.Code == CodeDeadline:
			s.metrics.add(&s.metrics.doc.Timeouts)
		case serr.Code == CodeBadRequest:
			s.metrics.add(&s.metrics.doc.Rejected.Invalid)
		}
	}()

	req, serr = s.validate(req)
	if serr != nil {
		return nil, serr
	}
	reqInfoFrom(ctx).set(func(ri *reqInfo) {
		ri.spec = req.Job.Spec
		ri.program = req.Name
	})

	// The deadline covers everything from here: queueing, dedup waits,
	// parsing, and the solve itself.
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	canon, err := req.Job.Canonical()
	if err != nil {
		return nil, errf(CodeBadRequest, "encoding job: %v", err)
	}
	pk := s.progs.key(req)
	key := resultKey(pk, canon, req.Budget, req.Provenance)

	// Single-flight: exactly one solve per key at a time. The first
	// request becomes the owner and spawns the solve; identical
	// concurrent requests wait on the same flight. Admission happens
	// under the same lock that registers the flight, so capacity checks
	// and registration are atomic. The loop exists for one case: a
	// waiter whose flight's owner failed with the OWNER's deadline (a
	// deadline is per-request, not per-computation) retries with its
	// own, still-live deadline instead of inheriting the failure.
	for first := true; ; first = false {
		if resp, ok := s.results.get(key); ok {
			s.metrics.add(&s.metrics.doc.Cache.Hits)
			// A memory hit is a logical hit on the durable entry too:
			// refresh its recency so the on-disk LRU (and the
			// mtime-ordered index a restart rebuilds) tracks real access
			// order, not just disk-read order.
			s.store.touchKey(key)
			return s.finish(ctx, resp, req, "hit"), nil
		}
		// Durable tier: a result spilled to disk — by this process or a
		// previous incarnation sharing the cache dir — is a hit too.
		// Promote it to the memory LRU so repeats skip the file read.
		if doc, corrupt := s.store.get(key); doc != nil {
			s.metrics.add(&s.metrics.doc.Cache.Hits)
			s.metrics.add(&s.metrics.doc.Disk.Hits)
			s.results.put(key, doc)
			return s.finish(ctx, doc, req, "hit"), nil
		} else if corrupt {
			s.metrics.add(&s.metrics.doc.Disk.Corrupt)
		}

		s.mu.Lock()
		f, owner := s.flights[key], false
		if f == nil {
			// The flight this request missed may have finished since
			// the lookup above: its owner puts the result, then deletes
			// the flight under s.mu. Look again before solving the key
			// a second time; the next pass serves the hit.
			if _, ok := s.results.get(key); ok {
				s.mu.Unlock()
				continue
			}
			if s.pending >= s.cfg.Workers+s.cfg.QueueDepth {
				s.mu.Unlock()
				s.metrics.add(&s.metrics.doc.Rejected.Overload)
				return nil, errf(CodeOverloaded, "at capacity: %d in flight or queued (workers=%d queue=%d)",
					s.cfg.Workers+s.cfg.QueueDepth, s.cfg.Workers, s.cfg.QueueDepth)
			}
			s.pending++
			s.flightSeq++
			f = &flight{
				id: s.flightSeq, program: req.Name, spec: req.Job.Spec, provenance: req.Provenance,
				started: time.Now(), stage: "queued", done: make(chan struct{}),
			}
			s.flights[key] = f
			owner = true
		}
		s.mu.Unlock()

		if owner {
			s.metrics.add(&s.metrics.doc.Cache.Misses)
			// The solve runs detached from the owning connection (but
			// under the same absolute deadline): if the owner
			// disconnects, the requests deduplicated behind it still get
			// their result, and a completed solve still lands in the
			// cache.
			dl, _ := ctx.Deadline()
			solveCtx, cancel := context.WithDeadline(context.WithoutCancel(ctx), dl)
			s.metrics.mu.Lock()
			s.metrics.doc.Queue.Depth++
			s.metrics.mu.Unlock()
			go func() {
				defer cancel()
				f.resp, f.err = s.solve(solveCtx, f, req, pk, key, extra)
				s.mu.Lock()
				delete(s.flights, key)
				s.pending--
				s.mu.Unlock()
				close(f.done)
			}()
		}

		select {
		case <-f.done:
			switch {
			case f.err == nil && owner:
				return s.finish(ctx, f.resp, req, "miss"), nil
			case f.err == nil:
				s.metrics.add(&s.metrics.doc.Cache.Dedup)
				return s.finish(ctx, f.resp, req, "dedup"), nil
			case owner:
				return nil, f.err
			case ctx.Err() != nil:
				return nil, errf(CodeDeadline, "deadline expired waiting for identical in-flight request")
			default:
				// The owner failed but this request's deadline is still
				// live: go around and try to own a fresh flight. A
				// deterministic failure (e.g. a source that does not
				// parse) terminates the loop on the next pass, when this
				// request owns the flight and sees the error firsthand.
				continue
			}
		case <-ctx.Done():
			if first {
				return nil, errf(CodeDeadline, "deadline expired waiting for identical in-flight request")
			}
			return nil, errf(CodeDeadline, "deadline expired")
		}
	}
}

// solve acquires a worker slot, loads the (cached) program, runs the
// pipeline, and stores a cacheable outcome, reporting its progress on
// fl. extra, when non-nil, is composed into the solve's observer chain
// (streaming).
func (s *Service) solve(ctx context.Context, fl *flight, req Request, pk, key string, extra analysis.Observer) (*analysis.RunJSON, *Error) {
	enqueued := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.metrics.mu.Lock()
		s.metrics.doc.Queue.Depth--
		s.metrics.mu.Unlock()
		return nil, errf(CodeDeadline, "deadline expired waiting for a worker")
	}
	// The detached solve context preserves the owner's request values
	// (context.WithoutCancel), so the slot wait lands on the owning
	// request's access-log line; dedup waiters never queued, so their
	// lines carry none.
	reqInfoFrom(ctx).set(func(ri *reqInfo) { ri.queueMS = time.Since(enqueued).Milliseconds() })
	s.metrics.mu.Lock()
	s.metrics.doc.Queue.Depth--
	s.metrics.doc.Queue.InFlight++
	s.metrics.mu.Unlock()
	defer func() {
		<-s.slots
		s.metrics.mu.Lock()
		s.metrics.doc.Queue.InFlight--
		s.metrics.mu.Unlock()
	}()

	fl.setStage("parse")
	entry := s.progs.load(req, pk, func() (*ir.Program, error) { return parseSource(req) })
	if entry.err != nil {
		return nil, errf(CodeBadRequest, "parsing source: %v", entry.err)
	}

	// Heartbeats (GET /v1/flights) and memory telemetry always; trace
	// spans when the service has a tracer. One track per solve keeps
	// concurrent requests on separate lanes in the viewer.
	observer := analysis.Observers(fl.observer(), s.metrics.observer())
	if s.cfg.Tracer != nil {
		track := s.cfg.Tracer.NewTrack(fmt.Sprintf("#%d %s %s", fl.id, req.Name, req.Job.Spec))
		observer = analysis.Observers(observer, analysis.TrackObserver(track))
	}
	if extra != nil {
		observer = analysis.Observers(observer, extra)
	}

	areq := analysis.Request{
		Prog:          entry.prog,
		Job:           req.Job,
		Limits:        analysis.Limits{Budget: req.Budget},
		Provenance:    req.Provenance,
		Observer:      observer,
		SnapshotEvery: s.cfg.SnapshotEvery,
		// Always audit: decisions never affect the solve, and recording
		// them on the cached document means later requests with
		// decisions=1 are served from cache too. finish strips them from
		// responses that did not ask.
		Audit: true,
	}
	// Pre-pass sharing: inject the program's cached insensitive result
	// if this pipeline would otherwise solve one. NeedsPrePass is what
	// the pipeline itself checks, so injection is exactly as valid as a
	// fresh pre-pass solve. So is the budget check: the solver stops
	// only once its work exceeds the budget, so a fresh pre-pass would
	// complete exactly when the shared result's Work fits the request's
	// budget (never 0 here; negative is unlimited), and a request it
	// does not fit solves and caps its own pre-pass, as on a cold
	// service. Requests that record provenance skip the shared result
	// unless it, too, has provenance — witnesses must stay
	// reconstructible. Taint jobs never share: their pre-pass solves
	// the taint-instrumented program, not the program the cached
	// insensitive result was solved over.
	if first := entry.sharedFirst(); first != nil && req.Job.Taint == nil && req.Job.NeedsPrePass() &&
		(req.Budget < 0 || first.Work <= req.Budget) &&
		(!req.Provenance || first.ProvenanceEnabled()) {
		areq.First = first
		s.metrics.add(&s.metrics.doc.PrePassShared)
	}

	res, runErr := analysis.Run(ctx, areq)
	s.metrics.add(&s.metrics.doc.Solves)

	if runErr != nil {
		var be *analysis.BudgetExceededError
		var te *analysis.InvalidTaintError
		switch {
		case errors.As(runErr, &be) && res != nil:
			// Deterministic, reportable outcome, whichever pass ran out
			// (a capped main pass is the paper's TIMEOUT rows): fall
			// through and cache it like a success. A capped pre-pass's
			// document is incomplete, with no precision.
		case errors.As(runErr, &te):
			// The program rejects the taint spec: the requester's fault,
			// as a source that does not parse is.
			return nil, errf(CodeBadRequest, "%v", runErr)
		case ctx.Err() != nil:
			return nil, errf(CodeDeadline, "deadline expired after %s", deadlineStage(res))
		default:
			s.metrics.add(&s.metrics.doc.InternalErrs)
			return nil, errf(CodeInternal, "%v", runErr)
		}
	}

	// Share this solve's insensitive pass with future requests for the
	// same program: an introspective run's pre-pass, or an "insens"
	// run's main pass — both are the same pure function of the program.
	if res.First != nil {
		entry.offerFirst(res.First)
	} else if res.Main != nil && res.Main.Complete && res.Main.Analysis == "insens" {
		entry.offerFirst(res.Main)
	}

	resp := analysis.NewRunJSON(res)
	s.results.put(key, resp)
	// Spill to the durable tier. Deadline expiries never reach here
	// (returned above), so everything stored is a deterministic
	// function of its key — safe to serve across restarts, or from a
	// shared directory. A failed spill costs durability, not
	// correctness; the memory cache already has the entry.
	if s.store != nil {
		if err := s.store.put(key, resp); err == nil {
			s.metrics.add(&s.metrics.doc.Disk.Writes)
		}
	}
	return resp, nil
}

// validate normalizes and checks a request, returning the resolved
// form (defaults applied).
func (s *Service) validate(req Request) (Request, *Error) {
	switch req.Lang {
	case "":
		req.Lang = "mj"
	case "mj", "ir":
	default:
		return req, errf(CodeBadRequest, "unknown lang %q (have mj, ir)", req.Lang)
	}
	if req.Source == "" {
		return req, errf(CodeBadRequest, "source is required")
	}
	if len(req.Source) > s.cfg.MaxSourceBytes {
		return req, errf(CodeBadRequest, "source is %d bytes, limit %d", len(req.Source), s.cfg.MaxSourceBytes)
	}
	if req.Name == "" {
		req.Name = "program"
	}
	if err := req.Job.Validate(); err != nil {
		return req, errf(CodeBadRequest, "%v", err)
	}
	if req.Budget == 0 {
		req.Budget = s.cfg.DefaultBudget
	}
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	req.DeadlineMS = int64(d / time.Millisecond)
	return req, nil
}

func parseSource(req Request) (*ir.Program, error) {
	switch req.Lang {
	case "ir":
		prog, err := ir.ParseString(req.Source)
		if err != nil {
			return nil, err
		}
		if req.Name != "program" && req.Name != "" {
			prog.Name = req.Name
		}
		return prog, nil
	default:
		return lang.Compile(req.Name, req.Source)
	}
}

// finish prepares the shared cached document as one response: a
// shallow copy with the Cache label set (the cached value itself stays
// immutable), the decision audit stripped unless this request asked
// for it (solves always record decisions so cached documents can serve
// audited requests later), and the outcome noted on the request's
// access-log line.
func (s *Service) finish(ctx context.Context, r *analysis.RunJSON, req Request, label string) *analysis.RunJSON {
	reqInfoFrom(ctx).set(func(ri *reqInfo) { ri.cache = label })
	cp := *r
	cp.Cache = label
	if !req.Decisions {
		cp.Decisions = nil
	}
	return &cp
}

// deadlineStage names the last stage that ran, for 504 messages.
func deadlineStage(res *analysis.Result) string {
	if res == nil || len(res.Stages) == 0 {
		return "stage frontend"
	}
	return fmt.Sprintf("stage %s (work=%d)", res.Stages[len(res.Stages)-1].Stage, res.Stages[len(res.Stages)-1].Work)
}
