package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/ir"
	"introspect/internal/obs"
	"introspect/internal/service"
	"introspect/internal/suite"
	ptav1 "introspect/pta/v1"
)

const (
	// sweepRate is the offered load in requests per second. With about
	// one request in five a new key, the sweeps keep the two workers
	// about a third busy: at higher rates the hits queue for a CPU behind
	// the solves often enough that their tail follows the machine's
	// speed from run to run several times over.
	sweepRate = 20
	// missShare is one over the share of requests that are sweeps.
	missShare = 5
	// sweepBudget is the per-pass work budget of every request, the
	// figures' default.
	sweepBudget = 30_000_000
	// missSample is how many sweep misses each run re-solves in process.
	missSample = 4
)

// warmSpecs are the analyses set-up solves for every program; timed
// hits re-ask these keys.
var warmSpecs = []string{"insens", "cs", "2objH-IntroA", "2objH-IntroB"}

// sweepSpecs are the introspective variants researchers sweep the
// thresholds of.
var sweepSpecs = []string{"2objH-IntroA", "2objH-IntroB"}

// unswept is the one (program, variant) pair left out of the sweeps: at
// the sweep budget it always runs out, and each of its 850 ms solves
// would hold a worker long enough to queue the sweeps behind it, so the
// miss figures would depend on which other sweeps happened to land
// next to it. Its budget-capped document is still re-asked as a warm
// key.
const unswept = "jython 2objH-IntroB"

// sweepPairs lists the (program, variant) pairs that get swept.
func sweepPairs() (progs []int, specs []string) {
	for p, name := range suite.Names() {
		for _, spec := range sweepSpecs {
			if name+" "+spec != unswept {
				progs, specs = append(progs, p), append(specs, spec)
			}
		}
	}
	return progs, specs
}

// sweepReq is one planned request of the open loop.
type sweepReq struct {
	due  time.Duration
	prog int // index into suite.Names()
	job  analysis.Job
	warm int // index of the warm key re-asked, -1 for a threshold sweep
}

func warmJob(w int) (prog int, job analysis.Job) {
	return w / len(warmSpecs), analysis.Job{Spec: warmSpecs[w%len(warmSpecs)]}
}

// sweepSchedule plans seconds of traffic at sweepRate from the seed.
// The sweeps cycle through the swept (program, variant) pairs and the hits
// through every warm key, each in one seeded order, so every seed offers
// the same mix at the same times; the seed draws the orders and the
// thresholds, each within 20% of the paper's default and never repeated.
func sweepSchedule(seed int64, seconds int) []sweepReq {
	rng := rand.New(rand.NewSource(seed))
	n := sweepRate * seconds
	pairProg, pairSpec := sweepPairs()
	pairs := len(pairProg)
	nMiss := pairs * int(math.Round(float64(n)/missShare/float64(pairs)))
	// Sweeps are spread evenly through the schedule, so queueing comes
	// from their cost, not from bursts a draw happened to make.
	isMiss := make([]bool, n)
	for k := 0; k < min(nMiss, n); k++ {
		isMiss[k*n/nMiss] = true
	}
	// One seeded order each, repeated: a pair comes back every `pairs`
	// sweeps, so the costly pairs never bunch up.
	missOrder, hitOrder := rng.Perm(pairs), rng.Perm(len(suite.Names())*len(warmSpecs))
	misses, hits := 0, 0
	seen := map[string]bool{}
	out := make([]sweepReq, n)
	for i := range out {
		q := sweepReq{due: time.Duration(i) * time.Second / sweepRate, warm: -1}
		if isMiss[i] {
			p := missOrder[misses%pairs]
			misses++
			q.prog = pairProg[p]
			spec := pairSpec[p]
			for {
				th := drawThresholds(rng, spec)
				key := fmt.Sprint(q.prog, spec, *th)
				if !seen[key] {
					seen[key] = true
					q.job = analysis.Job{Spec: spec, Thresholds: th}
					break
				}
			}
		} else {
			q.warm = hitOrder[hits%len(hitOrder)]
			hits++
			q.prog, q.job = warmJob(q.warm)
		}
		out[i] = q
	}
	return out
}

// drawThresholds draws IntroA's K/L/M or IntroB's P/Q within 20% of the
// paper's defaults.
func drawThresholds(rng *rand.Rand, spec string) *analysis.Thresholds {
	near := func(def int) int { return def*4/5 + rng.Intn(def*2/5+1) }
	if strings.HasSuffix(spec, "-IntroA") {
		return &analysis.Thresholds{K: near(100), L: near(100), M: near(200)}
	}
	return &analysis.Thresholds{P: near(10000), Q: near(10000)}
}

// lockedBuffer is the access log's in-memory sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns what was logged so far and empties the buffer.
func (b *lockedBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

// sweepService is a warmed service with everything a request needs.
type sweepService struct {
	svc      *service.Service
	handler  http.Handler
	dir      string
	log      *lockedBuffer
	names    []string
	texts    []string
	srcJSON  [][]byte // each program's source as a JSON string
	warmDocs [][]byte // each warm key's response, as a hit returns it
}

// startSweepService builds the programs' IR text, starts the service as
// cmd/ptad configures it by default (2 workers, queue 16, access log on,
// durable store) and solves every warm key through its HTTP handler.
func startSweepService(storeRoot string, tracer *obs.Tracer) (*sweepService, error) {
	s := &sweepService{names: suite.Names(), log: &lockedBuffer{}}
	for _, b := range s.names {
		var buf bytes.Buffer
		if err := suite.Profiles()[b].Build().WriteText(&buf); err != nil {
			return nil, err
		}
		src, err := json.Marshal(buf.String())
		if err != nil {
			return nil, err
		}
		s.texts = append(s.texts, buf.String())
		s.srcJSON = append(s.srcJSON, src)
	}
	dir, err := os.MkdirTemp(storeRoot, "ptad-store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	s.svc, err = service.New(service.Config{
		Workers:    2,
		QueueDepth: 16,
		CacheDir:   dir,
		Logger:     obs.NewLogger(s.log),
		Tracer:     tracer,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.handler = s.svc.Handler()

	// Insensitive keys first, so the introspective ones share their
	// pre-pass as they would in a long-running daemon.
	var order []int
	for spec := range warmSpecs {
		for p := range s.names {
			order = append(order, p*len(warmSpecs)+spec)
		}
	}
	s.warmDocs = make([][]byte, len(order))
	errs := make([]error, len(order))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				p, job := warmJob(k)
				rec := serve(s.handler, s.request(p, job))
				if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache":"miss"`)) {
					errs[k] = fmt.Errorf("warming %s %s: status %d", s.names[p], job.Spec, rec.Code)
					continue
				}
				s.warmDocs[k] = bytes.Replace(rec.Body.Bytes(), []byte(`"cache":"miss"`), []byte(`"cache":"hit"`), 1)
			}
		}()
	}
	for _, k := range order {
		next <- k
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepService) close() { os.RemoveAll(s.dir) }

// request builds the HTTP request for job on program p, sharing the
// program's source rather than copying it. A job with thresholds can
// only travel as a JSON AnalyzeRequest; any other job is sent the way
// curl users do, as a raw source body with the job in the query.
func (s *sweepService) request(p int, job analysis.Job) *http.Request {
	if job.Thresholds == nil {
		q := url.Values{"lang": {"ir"}, "name": {s.names[p]}, "spec": {job.Spec}, "budget": {strconv.Itoa(sweepBudget)}}
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze?"+q.Encode(), strings.NewReader(s.texts[p]))
		req.Header.Set("Content-Type", "text/plain")
		return req
	}
	name, _ := json.Marshal(s.names[p])
	jobJSON, _ := json.Marshal(job)
	body := io.MultiReader(
		strings.NewReader(`{"lang":"ir","name":`+string(name)+`,"source":`),
		bytes.NewReader(s.srcJSON[p]),
		strings.NewReader(fmt.Sprintf(`,"job":%s,"budget":%d}`, jobJSON, sweepBudget)))
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", body)
	req.Header.Set("Content-Type", "application/json")
	return req
}

func serve(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// mirror serves a request the way the service's own analyze handler
// does, with a span around each layer it crosses: decode, the service
// (cache lookup for a hit) and encode.
func (s *sweepService) mirror(track *obs.Track) http.Handler {
	maxBody := int64(s.svc.Config().MaxSourceBytes)*2 + 4096
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := track.Begin("ptav1.DecodeAnalyze", nil)
		req, derr := ptav1.DecodeAnalyze(r, maxBody)
		sp.End()
		if derr != nil {
			http.Error(w, derr.Error(), derr.HTTPStatus())
			return
		}
		sp = track.Begin("Service.Analyze", nil)
		resp, serr := s.svc.Analyze(r.Context(), req)
		sp.End()
		if serr != nil {
			http.Error(w, serr.Error(), serr.HTTPStatus())
			return
		}
		sp = track.Begin("json.Encode", nil)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(resp)
		sp.End()
	})
}

// openLoop calls send(i) on its own goroutine at each due offset,
// whether or not earlier requests have finished, and returns when all
// have.
func openLoop(dues []time.Duration, send func(i int)) []timing {
	out := make([]timing, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range dues {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Since(start)
			send(i)
			out[i] = timing{due: dues[i], sent: sent, done: time.Since(start)}
		}(i)
	}
	wg.Wait()
	return out
}

// ptadSweep offers researcher traffic to a warmed service at a fixed
// rate: mostly re-asked keys (the read path) and some threshold sweeps
// (the write path).
func ptadSweep(e env) (*result, error) {
	r := newResult()
	storeRoot := buildDir()
	if err := os.MkdirAll(storeRoot, 0o755); err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if e.trace {
		tracer = obs.NewTracer(ringCap)
	}
	var s *sweepService
	setup, err := timeSetup(func() error {
		if s != nil {
			s.close()
		}
		var err error
		s, err = startSweepService(storeRoot, tracer)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("setup_s", setup)

	reqs := sweepSchedule(e.seed, e.seconds)
	dues := make([]time.Duration, len(reqs))
	for i, q := range reqs {
		dues[i] = q.due
	}
	type response struct {
		code int
		body []byte
	}
	resps := make([]response, len(reqs))
	benchTrack := tracer.NewTrack("perfbench")
	send := func(i int) {
		q := reqs[i]
		h := s.handler
		if e.trace {
			track := tracer.NewTrack(fmt.Sprintf("req %d", i))
			if q.warm >= 0 {
				h = s.mirror(track)
			} else {
				sp := track.Begin("http", nil)
				defer sp.End()
			}
		}
		rec := serve(h, s.request(q.prog, q.job))
		resps[i] = response{rec.Code, rec.Body.Bytes()}
	}

	s.log.take()
	m0 := s.svc.Metrics()
	heap := startHeapSampler()
	gc0 := readGC()
	window := benchTrack.Begin("sweep.window", nil)
	timings := openLoop(dues, send)
	window.End()
	gc := gcBetween(gc0, readGC())
	r.set("peak_heap_mb", heap.stopMiB())
	m1 := s.svc.Metrics()
	accessLog := s.log.take()

	var hit, miss, late []float64
	var wall time.Duration
	var misses []int
	docs := map[int]*analysis.RunJSON{}
	for i, q := range reqs {
		t := timings[i]
		wall = max(wall, t.done)
		late = append(late, ms(t.late()))
		r.attempted++
		resp := resps[i]
		if resp.code != http.StatusOK {
			r.fail("request %d (%s %s): status %d", i, s.names[q.prog], q.job.Spec, resp.code)
			continue
		}
		if q.warm >= 0 {
			hit = append(hit, ms(t.latency()))
			if !bytes.Equal(resp.body, s.warmDocs[q.warm]) {
				r.fail("request %d: hit differs from the document %s %s was solved to", i, s.names[q.prog], q.job.Spec)
			}
			continue
		}
		miss = append(miss, ms(t.latency()))
		var doc analysis.RunJSON
		if err := json.Unmarshal(resp.body, &doc); err != nil || doc.Cache != "miss" {
			r.fail("request %d: sweep not solved as a new key (cache %q, %v)", i, doc.Cache, err)
			continue
		}
		docs[i] = &doc
		misses = append(misses, i)
	}
	r.set("wall_s", wall.Seconds())
	r.set("trace.wall_s", wall.Seconds())
	r.set("throughput_rps", float64(len(reqs))/wall.Seconds())
	setLatencies(r, hit, miss)
	setGC(r, gc)
	r.setTail("loadgen.late_tail_ms", tail(late))

	// A seeded sample of sweeps must match a cold in-process solve.
	rng := rand.New(rand.NewSource(e.seed))
	for _, k := range rng.Perm(len(misses))[:min(missSample, len(misses))] {
		i := misses[k]
		if msg := verifySweep(s, reqs[i], docs[i]); msg != "" {
			r.fail("request %d (%s %s): %s", i, s.names[reqs[i].prog], reqs[i].job.Spec, msg)
		}
	}
	if !e.trace {
		return r, nil
	}

	r.set("cache.hit_frac", float64(m1.Cache.Hits-m0.Cache.Hits)/float64(m1.Requests-m0.Requests))
	r.set("cache.dedup", float64(m1.Cache.Dedup-m0.Cache.Dedup))
	r.set("store.writes", float64(m1.Disk.Writes-m0.Disk.Writes))
	var decisions uint64
	for k, v := range m1.Decisions {
		decisions += v - m0.Decisions[k]
	}
	r.set("selection.decisions", float64(decisions))

	var pc passCounts
	var solve []float64
	for _, i := range misses {
		var wall time.Duration
		for _, st := range docs[i].Stages {
			pc.addStats(st)
			wall += st.Wall
		}
		solve = append(solve, ms(wall))
	}
	r.set("solve.p50_ms", p50(solve))

	l, err := readSpans(tracer)
	if err != nil {
		return nil, err
	}
	var win interval
	for _, sp := range l.spans {
		if sp.name == "sweep.window" {
			win = sp.iv
		}
	}
	inWindow := l.spans[:0:0]
	for _, sp := range l.spans {
		if sp.iv.start >= win.start && sp.iv.end <= win.end {
			inWindow = append(inWindow, sp)
		}
	}
	l.spans = inWindow
	self := l.stageSelf()
	setLayerSelf(r, self)
	pc.report(r, self["mainpass"])
	// The service counts pre-pass sharing itself; every sweep is
	// introspective, so the rest solved their own.
	shared := m1.PrePassShared - m0.PrePassShared
	r.set("prepass.shared", float64(shared))
	r.set("prepass.solves", float64(uint64(len(misses))-shared))
	for name, metric := range map[string]string{
		"ptav1.DecodeAnalyze": "decode.p50_us",
		"Service.Analyze":     "analyze.hit_p50_us",
		"json.Encode":         "encode.p50_us",
	} {
		var us []float64
		for _, d := range l.durations(name) {
			us = append(us, float64(d)/float64(time.Microsecond))
		}
		r.set(metric, p50(us))
	}

	queue, err := queueWaits(accessLog)
	if err != nil {
		return nil, err
	}
	r.set("queue.wait_p50_ms", p50(queue))
	r.setTail("queue.wait_tail_ms", tail(queue))
	return r, nil
}

// queueWaits reads the worker-slot wait of every solved request from
// the access log; the service omits the field when the wait rounds to
// 0 ms.
func queueWaits(log []byte) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(log))
	for sc.Scan() {
		var line struct {
			Cache   string  `json:"cache"`
			QueueMS float64 `json:"queue_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		if line.Cache == "miss" {
			out = append(out, line.QueueMS)
		}
	}
	return out, sc.Err()
}

// verifySweep solves a sweep's job cold, in process, and compares every
// deterministic field of the outcome with the service's document.
func verifySweep(s *sweepService, q sweepReq, got *analysis.RunJSON) string {
	prog, err := ir.ParseText(strings.NewReader(s.texts[q.prog]))
	if err != nil {
		return err.Error()
	}
	prog.Name = s.names[q.prog]
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog:   prog,
		Job:    q.job,
		Limits: analysis.Limits{Budget: sweepBudget},
	})
	var be *analysis.BudgetExceededError
	if err != nil && (!errors.As(err, &be) || res == nil || res.Main == nil) {
		return err.Error()
	}
	want, gotN := deterministic(analysis.NewRunJSON(res)), deterministic(got)
	if want != gotN {
		return "differs from an in-process solve of the same job"
	}
	return ""
}

// deterministic renders a document without its wall-clock fields, its
// cache label and its decision audit.
func deterministic(doc *analysis.RunJSON) string {
	d := *doc
	d.Cache, d.Decisions, d.Trace = "", nil, nil
	d.Stages = append([]analysis.Stats(nil), doc.Stages...)
	for i := range d.Stages {
		d.Stages[i].Wall = 0
	}
	if doc.Precision != nil {
		p := *doc.Precision
		p.ElapsedMS = 0
		d.Precision = &p
	}
	b, _ := json.Marshal(d)
	return string(b)
}
