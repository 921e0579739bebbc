package pta

import (
	"context"
	"errors"
	"fmt"
	"time"

	"introspect/internal/bits"
	"introspect/internal/ir"
)

// Options controls resource limits and instrumentation of a solver run.
//
// The paper reports analyses that "do not terminate" within a 90-minute
// timeout; we reproduce that behavior with a deterministic work budget,
// so that "timed out" results are stable across machines. Wall-clock
// limits are expressed through the context passed to Solve (use
// context.WithTimeout / context.WithDeadline).
type Options struct {
	// Budget is the maximum number of abstract work units (constraint
	// propagation steps) before the run is abandoned. 0 means
	// DefaultBudget; negative means unlimited.
	Budget int64
	// Snapshot, if non-nil, is called periodically from the worklist
	// loop with a point-in-time Snapshot of the solve — the hook the
	// observability layer uses for solver-level tracing and live
	// heartbeats. Disabled it costs one nil check per worklist pop
	// (the same pattern as the provenance recorder); enabled, each
	// sample scans the per-node length arrays, so the cost is
	// O(nodes / SnapshotEvery) per work unit and is controlled
	// entirely by the sampling interval.
	Snapshot func(Snapshot)
	// SnapshotEvery is the minimum number of work units between
	// Snapshot calls. 0 means DefaultSnapshotEvery.
	SnapshotEvery int64
	// Provenance enables the derivation-witness recorder: for every
	// points-to fact the solver notes the constraint edge that first
	// derived it, so Result.Explain can reconstruct a shortest
	// derivation path (alloc → … → use) post-solve. Propagation stays
	// on the word-parallel kernels either way; recording appends one
	// stamp per word of new bits an edge push produces. Disabled it
	// costs one nil check per edge push and per such word. See
	// provenance.go.
	Provenance bool
}

// DefaultBudget is the work-unit budget standing in for the paper's
// 90-minute timeout.
const DefaultBudget int64 = 150_000_000

// DefaultSnapshotEvery is the default work-unit interval between
// Options.Snapshot callbacks. A snapshot costs an O(nodes) scan, so
// the default keeps sampling well under 1% of solve time even on
// exploding runs.
const DefaultSnapshotEvery int64 = 1 << 22

// Snapshot is a point-in-time picture of a running solve, emitted
// through Options.Snapshot. It is what makes a context-sensitivity
// explosion visible while it happens instead of after: worklist depth,
// interned-node counts, and points-to volume, sampled on the work-unit
// clock so identical runs snapshot at identical points.
type Snapshot struct {
	// Work / Derivations / Propagations are the running values of the
	// counters Result reports at the end of the solve.
	Work         int64 `json:"work"`
	Derivations  int64 `json:"derivations"`
	Propagations int64 `json:"propagations"`
	// Pops is the number of worklist iterations so far.
	Pops int64 `json:"pops"`
	// Worklist and PendingMethods are the current queue depths: nodes
	// awaiting a delta flush and (method, context) pairs awaiting
	// constraint generation.
	Worklist       int `json:"worklist"`
	PendingMethods int `json:"pending_methods"`
	// Nodes and Edges are the current constraint-graph size.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// HeapContexts / MethodContexts / ReachableMethods are the current
	// interned-population sizes.
	HeapContexts     int `json:"heap_contexts"`
	MethodContexts   int `json:"method_contexts"`
	ReachableMethods int `json:"reachable_methods"`
	// PTTotal is Σ|pt| over all nodes (the paper's analysis-size
	// indicator, mid-flight); DeltaPending is Σ|delta| — facts derived
	// but not yet flushed across outgoing edges.
	PTTotal      int64 `json:"pt_total"`
	DeltaPending int64 `json:"delta_pending"`
}

// checkCtxEvery is how often (in worklist pops) the solver polls its
// context for cancellation; a power of two so the check is a mask.
const checkCtxEvery = 1024

// ErrBudgetExceeded is the sentinel wrapped by the error Solve returns
// when the work budget is exhausted before fixpoint — the
// reproduction's analogue of the paper's 90-minute timeout. The
// returned Result is still valid as a sound-in-progress
// under-approximation; callers match with errors.Is.
var ErrBudgetExceeded = errors.New("work budget exceeded")

func (o Options) budget() int64 {
	switch {
	case o.Budget == 0:
		return DefaultBudget
	case o.Budget < 0:
		return 1 << 62
	default:
		return o.Budget
	}
}

type nodeKind uint8

const (
	varNode    nodeKind = iota // (variable, calling context)
	fieldNode                  // (context-qualified heap object, field)
	staticNode                 // static field (context-insensitive)
)

// edge is a subset constraint src ⊆ dst, optionally filtered by a cast
// target type: only objects whose dynamic type is a subtype of filter
// flow across a filtered edge.
type edge struct {
	dst    int32
	filter ir.TypeID // ir.None = unfiltered
}

type loadUse struct {
	field ir.FieldID
	dst   int32 // destination var node
}

type storeUse struct {
	field ir.FieldID
	src   int32 // source var node
}

type callUse struct {
	call *ir.Call
}

// cgPack packs a context-qualified call-graph edge (invo, callerCtx,
// meth, calleeCtx) into the pairSet's two-word key; cgUnpack inverts it.
func cgPack(invo ir.InvoID, callerCtx Ctx, meth ir.MethodID, calleeCtx Ctx) (uint64, uint64) {
	return uint64(uint32(invo))<<32 | uint64(uint32(callerCtx)),
		uint64(uint32(meth))<<32 | uint64(uint32(calleeCtx))
}

func cgUnpack(a, b uint64) (ir.InvoID, Ctx, ir.MethodID, Ctx) {
	return ir.InvoID(int32(a >> 32)), Ctx(int32(uint32(a))),
		ir.MethodID(int32(b >> 32)), Ctx(int32(uint32(b)))
}

// filterCache memoizes cast-filter verdicts per hc id for one filter
// type: known holds the hc ids whose verdict has been computed, pass
// the subset whose dynamic type is a subtype of the filter. Because an
// hc id's heap (and so its type) never changes, verdicts are stable,
// and pass doubles as a word-level mask for batched propagation across
// filtered edges.
type filterCache struct {
	known, pass bits.Set
}

type solver struct {
	prog *ir.Program
	pol  Policy
	tab  *Table
	// edits is the strategy's pre-solve constraint-graph edit set (nil
	// for pure context policies). Consulted once per call-graph edge
	// and per dispatch; nil costs one pointer check there and leaves
	// work accounting untouched, which is what keeps the figure goldens
	// bit-identical across the Policy → Strategy migration.
	edits *Edits

	// Context-qualified heap objects, interned to dense ids ("hc ids").
	hcIdx  internTable
	hcHeap []ir.HeapID
	hcCtx  []HCtx

	// Constraint-graph nodes.
	nodeIdx internTable
	kind    []nodeKind
	nodeA   []int32 // var id | hc id | field id
	nodeB   []int32 // ctx     | field | 0
	pt      []bits.Set
	delta   []bits.Set
	// ptLen and deltaLen track |pt[n]| and |delta[n]| incrementally
	// (every insertion path knows how many bits it added), so
	// cardinality queries never popcount-scan a set.
	ptLen     []int32
	deltaLen  []int32
	succs     [][]edge
	loadUses  [][]loadUse
	storeUses [][]storeUse
	callUses  [][]callUse
	inWL      []bool
	wl        []int32
	// spares recycles drained delta sets (their backing storage) so a
	// node's flush does not allocate.
	spares []bits.Set
	// filters caches per-(filter, hc) subtype verdicts (see filterCache).
	filters map[ir.TypeID]*filterCache

	// Reachable (method, context) pairs.
	mcIdx     internTable
	mcMeth    []ir.MethodID
	mcCtx     []Ctx
	pendingMC []int32

	// Call graph, and the constraint-edge dedup set keyed by
	// (src, dst, filter).
	cgSeen      pairSet
	edgeSeen    pairSet
	invoTargets []map[ir.MethodID]struct{}

	reachMeths bits.Set // distinct reachable methods

	// prov, when non-nil, records each fact's first-deriving edge
	// (Options.Provenance; see provenance.go).
	prov *provRecorder

	work         int64
	derivations  int64 // new points-to facts established
	propagations int64 // (element, edge) propagation attempts
	budget       int64
	exceeded     bool
	ctx          context.Context
	ctxErr       error
	popCount     int
	snapshot     func(Snapshot)
	snapEvery    int64
	lastSnap     int64

	// finalize() products
	varNodes map[ir.VarID][]int32
	peakPT   int
}

// Solve runs the analysis over prog with the given strategy (a context
// policy plus optional pre-solve constraint-graph edits), creating
// contexts in tab. The worklist loop polls ctx every checkCtxEvery
// iterations, so cancellation (or a context deadline) stops the run
// promptly.
//
// Solve returns a non-nil Result for every run it starts. On a clean
// fixpoint the error is nil; if the work budget runs out first, the
// error wraps ErrBudgetExceeded; if ctx is cancelled or its deadline
// passes, the error wraps ctx.Err(). In both failure cases the Result
// is a sound-in-progress under-approximation (Complete is false).
func Solve(ctx context.Context, prog *ir.Program, strat Strategy, tab *Table, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &solver{
		prog:        prog,
		pol:         strat,
		tab:         tab,
		edits:       strat.Edits(),
		filters:     make(map[ir.TypeID]*filterCache),
		invoTargets: make([]map[ir.MethodID]struct{}, prog.NumInvos()),
		budget:      opts.budget(),
		ctx:         ctx,
		snapshot:    opts.Snapshot,
		snapEvery:   opts.SnapshotEvery,
	}
	if s.snapEvery <= 0 {
		s.snapEvery = DefaultSnapshotEvery
	}
	if opts.Provenance {
		s.prov = &provRecorder{}
	}
	start := time.Now() //introvet:allow feeds only Result.Elapsed, which no result or report table depends on
	s.run()
	s.finalize()
	res := &Result{
		Prog:         prog,
		Analysis:     strat.Name(),
		Complete:     !s.exceeded && s.ctxErr == nil,
		Work:         s.work,
		Derivations:  s.derivations,
		Propagations: s.propagations,
		Elapsed:      time.Since(start), //introvet:allow wall-clock reporting only; every other Result field is schedule-deterministic
		s:            s,
	}
	switch {
	case s.ctxErr != nil:
		return res, fmt.Errorf("pta: %s interrupted: %w", strat.Name(), s.ctxErr)
	case s.exceeded:
		return res, fmt.Errorf("pta: %s: %w after %d work units", strat.Name(), ErrBudgetExceeded, s.work)
	}
	return res, nil
}

// Analyze is a convenience wrapper: parse the analysis name, build the
// strategy, and solve. Error semantics are those of Solve: on budget
// exhaustion or cancellation the partial Result is returned alongside
// the error.
//
// Analyze covers the pure context families only. "cs" is rejected
// here: its edit set comes from the pattern detector in
// internal/cutshortcut (which pta cannot import), so running it
// through NewPolicy alone would silently degrade to an insensitive
// analysis under a misleading name. Use internal/cutshortcut.New or
// the analysis registry instead.
func Analyze(ctx context.Context, prog *ir.Program, analysis string, opts Options) (*Result, error) {
	spec, err := ParseSpec(analysis)
	if err != nil {
		return nil, err
	}
	if spec.Flavor == CutShortcut {
		return nil, fmt.Errorf("pta: %q needs the cut-shortcut edit set; build the strategy with internal/cutshortcut.New (or go through the analysis registry)", analysis)
	}
	tab := NewTable()
	return Solve(ctx, prog, NewPolicy(spec, prog, tab), tab, opts)
}

// --- interning ---

func (s *solver) internHC(h ir.HeapID, hc HCtx) int32 {
	key := uint64(uint32(h))<<32 | uint64(uint32(hc))
	if id, ok := s.hcIdx.get(key); ok {
		return id
	}
	id := int32(len(s.hcHeap))
	s.hcHeap = append(s.hcHeap, h)
	s.hcCtx = append(s.hcCtx, hc)
	s.hcIdx.put(key, id)
	return id
}

func nodeKey(k nodeKind, a, b int32) uint64 {
	return uint64(k)<<62 | uint64(uint32(a))<<31 | uint64(uint32(b))
}

func (s *solver) node(k nodeKind, a, b int32) int32 {
	key := nodeKey(k, a, b)
	if id, ok := s.nodeIdx.get(key); ok {
		return id
	}
	id := int32(len(s.kind))
	s.nodeIdx.put(key, id)
	if len(s.kind) == cap(s.kind) {
		s.growNodes()
	}
	s.kind = append(s.kind, k)
	s.nodeA = append(s.nodeA, a)
	s.nodeB = append(s.nodeB, b)
	s.pt = append(s.pt, bits.Set{})
	s.delta = append(s.delta, bits.Set{})
	s.ptLen = append(s.ptLen, 0)
	s.deltaLen = append(s.deltaLen, 0)
	s.succs = append(s.succs, nil)
	s.loadUses = append(s.loadUses, nil)
	s.storeUses = append(s.storeUses, nil)
	s.callUses = append(s.callUses, nil)
	s.inWL = append(s.inWL, false)
	return id
}

// growNodes doubles the capacity of every per-node parallel slice in
// lockstep. node() is the only append site, so the slices share one
// length; doubling them together keeps append's growth policy — which
// decays toward 1.25x for large slices and so reallocates (and zeroes)
// multi-megabyte arrays repeatedly during a context explosion — out of
// the solver's hottest path.
func (s *solver) growNodes() {
	n := len(s.kind)
	c := 2 * n
	if c < 1024 {
		c = 1024
	}
	s.kind = append(make([]nodeKind, 0, c), s.kind...)
	s.nodeA = append(make([]int32, 0, c), s.nodeA...)
	s.nodeB = append(make([]int32, 0, c), s.nodeB...)
	s.pt = append(make([]bits.Set, 0, c), s.pt...)
	s.delta = append(make([]bits.Set, 0, c), s.delta...)
	s.ptLen = append(make([]int32, 0, c), s.ptLen...)
	s.deltaLen = append(make([]int32, 0, c), s.deltaLen...)
	s.succs = append(make([][]edge, 0, c), s.succs...)
	s.loadUses = append(make([][]loadUse, 0, c), s.loadUses...)
	s.storeUses = append(make([][]storeUse, 0, c), s.storeUses...)
	s.callUses = append(make([][]callUse, 0, c), s.callUses...)
	s.inWL = append(make([]bool, 0, c), s.inWL...)
}

func (s *solver) varNodeID(v ir.VarID, ctx Ctx) int32 {
	return s.node(varNode, int32(v), int32(ctx))
}

func (s *solver) fieldNodeID(hc int32, f ir.FieldID) int32 {
	return s.node(fieldNode, hc, int32(f))
}

func (s *solver) staticNodeID(f ir.FieldID) int32 {
	return s.node(staticNode, int32(f), 0)
}

// --- constraint construction ---

func (s *solver) push(n int32) {
	if !s.inWL[n] {
		s.inWL[n] = true
		s.wl = append(s.wl, n)
	}
}

// addTo inserts a context-qualified heap object into a node's points-to
// set at an introduction point (an Alloc, a dispatch this-binding or a
// returned-receiver shortcut), scheduling propagation if it is new.
func (s *solver) addTo(n, hc int32) {
	if s.pt[n].Add(hc) {
		if s.prov != nil {
			s.prov.stamp(n, provIntro, hc&^63, 1<<uint(hc&63))
		}
		// delta ⊆ pt between flushes, so a fact new to pt is new to
		// delta too.
		s.delta[n].Add(hc)
		s.ptLen[n]++
		s.deltaLen[n]++
		s.push(n)
		s.work++
		s.derivations++
	}
}

// filterMask returns the pass mask for filter covering at least the
// elements of d: hc ids already known to satisfy the filter. Verdicts
// for d's not-yet-classified elements are computed (once per (filter,
// hc) — the verdict cache) before the mask is returned.
func (s *solver) filterMask(filter ir.TypeID, d *bits.Set) *bits.Set {
	fc := s.filters[filter]
	if fc == nil {
		fc = &filterCache{}
		s.filters[filter] = fc
	}
	d.ForEachDiff(&fc.known, func(hc int32) {
		fc.known.Add(hc)
		if s.prog.SubtypeOf(s.prog.HeapType(s.hcHeap[hc]), filter) {
			fc.pass.Add(hc)
		}
	})
	return &fc.pass
}

// addEdge installs the subset constraint src ⊆ dst (modulo filter),
// deduplicating repeats — re-reached methods and re-linked calls would
// otherwise multiply successor lists and propagate along each copy —
// and propagates src's already-flushed facts across the new edge.
// Elements still pending in src's delta are deliberately NOT propagated
// here: the edge is installed before src's next flush, which moves them
// (the old full re-scan pushed them twice and double-charged the work
// budget for it).
func (s *solver) addEdge(src, dst int32, filter ir.TypeID) {
	if !s.edgeSeen.insert(uint64(uint32(src))<<32|uint64(uint32(dst)), uint64(uint32(filter))) {
		return
	}
	s.succs[src] = append(s.succs[src], edge{dst: dst, filter: filter})
	// Propagate across the new edge only: the last one in src's list.
	es := s.succs[src]
	s.propagate(src, es[len(es)-1:], &s.pt[src], &s.delta[src])
}

// propagate pushes the elements of src not in skip from node from
// across each of edges (modulo its filter), one word-kernel call per
// edge. It charges what a per-element loop would: one work unit per
// scanned element plus one per new fact. With provenance on, each
// edge's new-bit words are stamped with from. It takes a whole edge
// list so that a node flush makes one call here, not one per edge:
// most pushes move only a few bits, and a second call per edge cost
// the figure runs about 15% of their main-pass time.
func (s *solver) propagate(from int32, edges []edge, src, skip *bits.Set) {
	for _, e := range edges {
		var mask *bits.Set
		if e.filter != ir.None {
			mask = s.filterMask(e.filter, src)
		}
		var fresh func(base int32, diff uint64)
		if p := s.prov; p != nil {
			dst := e.dst
			fresh = func(base int32, diff uint64) { p.stamp(dst, from, base, diff) }
		}
		added, scanned := s.pt[e.dst].UnionWords(src, skip, mask, &s.delta[e.dst], fresh)
		s.work += int64(scanned) + int64(added)
		s.propagations += int64(scanned)
		if added > 0 {
			s.ptLen[e.dst] += int32(added)
			s.deltaLen[e.dst] += int32(added)
			s.derivations += int64(added)
			s.push(e.dst)
		}
	}
}

// reach marks (m, ctx) reachable, queueing the method body for
// constraint generation if the pair is new.
func (s *solver) reach(m ir.MethodID, ctx Ctx) {
	key := uint64(uint32(m))<<32 | uint64(uint32(ctx))
	if _, ok := s.mcIdx.get(key); ok {
		return
	}
	id := int32(len(s.mcMeth))
	s.mcIdx.put(key, id)
	s.mcMeth = append(s.mcMeth, m)
	s.mcCtx = append(s.mcCtx, ctx)
	s.pendingMC = append(s.pendingMC, id)
	s.reachMeths.Add(int32(m))
}

// processMethod generates the constraints for one (method, context).
func (s *solver) processMethod(mc int32) {
	mi := s.mcMeth[mc]
	ctx := s.mcCtx[mc]
	m := &s.prog.Methods[mi]
	s.work += int64(len(m.Allocs) + len(m.Moves) + len(m.Loads) + len(m.Stores) +
		len(m.Calls) + len(m.Casts) + len(m.SLoads) + len(m.SStores))

	for _, a := range m.Allocs {
		hctx := s.pol.Record(a.Heap, ctx)
		hc := s.internHC(a.Heap, hctx)
		s.addTo(s.varNodeID(a.Var, ctx), hc)
	}
	for _, mv := range m.Moves {
		s.addEdge(s.varNodeID(mv.From, ctx), s.varNodeID(mv.To, ctx), ir.None)
	}
	for _, c := range m.Casts {
		s.addEdge(s.varNodeID(c.From, ctx), s.varNodeID(c.To, ctx), c.Type)
	}
	for _, l := range m.Loads {
		base := s.varNodeID(l.Base, ctx)
		dst := s.varNodeID(l.To, ctx)
		s.loadUses[base] = append(s.loadUses[base], loadUse{field: l.Field, dst: dst})
		// Apply to already-known receivers.
		s.pt[base].ForEach(func(hc int32) {
			s.work++
			s.addEdge(s.fieldNodeID(hc, l.Field), dst, ir.None)
		})
	}
	for _, st := range m.Stores {
		base := s.varNodeID(st.Base, ctx)
		src := s.varNodeID(st.From, ctx)
		s.storeUses[base] = append(s.storeUses[base], storeUse{field: st.Field, src: src})
		s.pt[base].ForEach(func(hc int32) {
			s.work++
			s.addEdge(src, s.fieldNodeID(hc, st.Field), ir.None)
		})
	}
	for _, l := range m.SLoads {
		s.addEdge(s.staticNodeID(l.Field), s.varNodeID(l.To, ctx), ir.None)
	}
	for _, st := range m.SStores {
		s.addEdge(s.varNodeID(st.From, ctx), s.staticNodeID(st.Field), ir.None)
	}
	for _, th := range m.Throws {
		from := s.varNodeID(th.From, ctx)
		// Thrown objects escape the method...
		s.addEdge(from, s.varNodeID(m.Exc, ctx), ir.None)
		// ...and reach the method's type-matching catch clauses.
		for _, ca := range m.Catches {
			s.addEdge(from, s.varNodeID(ca.Var, ctx), ca.Type)
		}
	}
	for ci := range m.Calls {
		c := &m.Calls[ci]
		if c.Kind == ir.Direct && c.Base == ir.None {
			// Static call: the callee context is built without a
			// receiver object.
			calleeCtx := s.pol.MergeStatic(c.Invo, c.Target, ctx)
			s.reach(c.Target, calleeCtx)
			s.linkCall(c, ctx, c.Target, calleeCtx)
			continue
		}
		// Receiver-based call (virtual dispatch or direct instance
		// call): resolved per receiver object as its points-to set grows.
		base := s.varNodeID(c.Base, ctx)
		s.callUses[base] = append(s.callUses[base], callUse{call: c})
		s.pt[base].ForEach(func(hc int32) {
			s.work++
			s.dispatch(c, ctx, hc)
		})
	}
}

// dispatch handles one receiver object arriving at one call site.
func (s *solver) dispatch(c *ir.Call, callerCtx Ctx, hc int32) {
	heap := s.hcHeap[hc]
	var toMeth ir.MethodID
	if c.Kind == ir.Virtual {
		toMeth = s.prog.Lookup(s.prog.HeapType(heap), c.Sig)
		if toMeth == ir.None {
			return
		}
	} else {
		toMeth = c.Target
	}
	calleeCtx := s.pol.Merge(heap, s.hcCtx[hc], c.Invo, toMeth, callerCtx)
	s.reach(toMeth, calleeCtx)
	// Bind this to exactly this receiver object (the VARPOINTSTO(this,
	// calleeCtx, heap, hctx) conclusion of the paper's VCALL rule).
	tm := &s.prog.Methods[toMeth]
	if tm.This != ir.None {
		s.addTo(s.varNodeID(tm.This, calleeCtx), hc)
	}
	s.linkCall(c, callerCtx, toMeth, calleeCtx)
	// Receiver-dependent shortcut edges: dispatch runs once per
	// receiver object per call site, which is exactly the granularity
	// the cut-shortcut compensation needs (linkCall is deduplicated on
	// contexts, not receivers).
	if s.edits != nil {
		if ed := s.edits.ForMethod(toMeth); ed != nil {
			s.applyDispatchEdits(c, callerCtx, hc, ed)
		}
	}
}

// applyDispatchEdits installs the shortcut edges that depend on the
// concrete receiver object hc: setter writes (argument → receiver
// field), getter reads (receiver field → result) and returned-receiver
// bindings. Each compensates a cut made in linkCall, restoring the
// exact value flow without routing it through the callee's merged
// context-insensitive variables.
func (s *solver) applyDispatchEdits(c *ir.Call, callerCtx Ctx, hc int32, ed *MethodEdit) {
	for _, st := range ed.Stores {
		if int(st.Arg) < len(c.Args) {
			s.addEdge(s.varNodeID(c.Args[st.Arg], callerCtx), s.fieldNodeID(hc, st.Field), ir.None)
		}
	}
	if c.Ret == ir.None {
		return
	}
	if ed.RetThis {
		s.addTo(s.varNodeID(c.Ret, callerCtx), hc)
	}
	for _, f := range ed.RetFields {
		s.addEdge(s.fieldNodeID(hc, f), s.varNodeID(c.Ret, callerCtx), ir.None)
	}
}

// linkCall installs the interprocedural assignments for a call-graph
// edge, once per (invo, callerCtx, meth, calleeCtx).
func (s *solver) linkCall(c *ir.Call, callerCtx Ctx, toMeth ir.MethodID, calleeCtx Ctx) {
	ka, kb := cgPack(c.Invo, callerCtx, toMeth, calleeCtx)
	if !s.cgSeen.insert(ka, kb) {
		return
	}
	if s.invoTargets[c.Invo] == nil {
		s.invoTargets[c.Invo] = make(map[ir.MethodID]struct{})
	}
	s.invoTargets[c.Invo][toMeth] = struct{}{}

	tm := &s.prog.Methods[toMeth]
	var ed *MethodEdit
	if s.edits != nil {
		ed = s.edits.ForMethod(toMeth)
	}
	n := len(c.Args)
	if n > len(tm.Formals) {
		n = len(tm.Formals)
	}
	for i := 0; i < n; i++ {
		if ed != nil && ed.cutsArg(i) {
			// Setter cut: the argument reaches the receiver's field
			// directly through the per-dispatch shortcut instead of
			// through the merged formal.
			continue
		}
		s.addEdge(s.varNodeID(c.Args[i], callerCtx), s.varNodeID(tm.Formals[i], calleeCtx), ir.None)
	}
	cutRet := false
	if ed != nil && ed.CutReturn {
		// The return cut is only safe when every returned-parameter
		// shortcut can actually be wired at this call edge; a caller
		// passing fewer arguments than the detector saw formals keeps
		// the ordinary return link instead.
		cutRet = true
		for _, fi := range ed.RetFormals {
			if int(fi) >= n {
				cutRet = false
			}
		}
		if cutRet && c.Ret != ir.None {
			for _, fi := range ed.RetFormals {
				s.addEdge(s.varNodeID(c.Args[fi], callerCtx), s.varNodeID(c.Ret, callerCtx), ir.None)
			}
		}
	}
	if !cutRet && c.Ret != ir.None && tm.Ret != ir.None {
		s.addEdge(s.varNodeID(tm.Ret, calleeCtx), s.varNodeID(c.Ret, callerCtx), ir.None)
	}
	// Exceptions escaping the callee propagate to the caller's Exc and
	// to its type-matching catch clauses.
	caller := &s.prog.Methods[s.prog.Invos[c.Invo].Method]
	calleeExc := s.varNodeID(tm.Exc, calleeCtx)
	s.addEdge(calleeExc, s.varNodeID(caller.Exc, callerCtx), ir.None)
	for _, ca := range caller.Catches {
		s.addEdge(calleeExc, s.varNodeID(ca.Var, callerCtx), ca.Type)
	}
}

// --- propagation ---

// interrupted is the per-iteration stop check of the worklist loop: the
// deterministic work budget every pop, the context (cancellation or
// deadline) every checkCtxEvery pops, and the optional snapshot
// callback every snapEvery work units.
func (s *solver) interrupted() bool {
	if s.work > s.budget {
		s.exceeded = true
		return true
	}
	s.popCount++
	if s.popCount&(checkCtxEvery-1) == 0 {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return true
		}
	}
	if s.snapshot != nil && s.work-s.lastSnap >= s.snapEvery {
		s.lastSnap = s.work
		s.snapshot(s.takeSnapshot())
	}
	return false
}

// takeSnapshot materializes a Snapshot of the current solver state.
// Only called when Options.Snapshot is installed; the Σ|pt| / Σ|delta|
// totals scan the incremental per-node length arrays, so one sample is
// O(nodes) with no effect on solver state or work accounting.
func (s *solver) takeSnapshot() Snapshot {
	sn := Snapshot{
		Work:             s.work,
		Derivations:      s.derivations,
		Propagations:     s.propagations,
		Pops:             int64(s.popCount),
		Worklist:         len(s.wl),
		PendingMethods:   len(s.pendingMC),
		Nodes:            len(s.kind),
		Edges:            s.edgeSeen.len(),
		HeapContexts:     len(s.hcHeap),
		MethodContexts:   len(s.mcMeth),
		ReachableMethods: s.reachMeths.Len(),
	}
	for i := range s.ptLen {
		sn.PTTotal += int64(s.ptLen[i])
		sn.DeltaPending += int64(s.deltaLen[i])
	}
	return sn
}

func (s *solver) run() {
	for _, e := range s.prog.Entries {
		s.reach(e, EmptyCtx)
	}
	for {
		if s.interrupted() {
			return
		}
		if n := len(s.pendingMC); n > 0 {
			mc := s.pendingMC[n-1]
			s.pendingMC = s.pendingMC[:n-1]
			s.processMethod(mc)
			continue
		}
		if n := len(s.wl); n > 0 {
			id := s.wl[n-1]
			s.wl = s.wl[:n-1]
			s.inWL[id] = false
			s.processNode(id)
			continue
		}
		return
	}
}

// takeDelta detaches node n's pending delta for flushing, installing a
// recycled empty set in its place so facts derived mid-flush accumulate
// into a fresh batch.
func (s *solver) takeDelta(n int32) bits.Set {
	d := s.delta[n]
	s.deltaLen[n] = 0
	if k := len(s.spares); k > 0 {
		s.delta[n] = s.spares[k-1]
		s.spares = s.spares[:k-1]
	} else {
		s.delta[n] = bits.Set{}
	}
	return d
}

// recycleDelta returns a drained delta set's storage to the spare pool.
func (s *solver) recycleDelta(d bits.Set) {
	d.Clear()
	s.spares = append(s.spares, d)
}

// processNode flushes node n's pending delta: whole 64-bit words move
// across each outgoing edge in one kernel call (filtered edges apply the
// cached verdict mask first), and the per-element loops survive only
// for the load/store/call uses that must inspect each new heap object
// individually.
func (s *solver) processNode(n int32) {
	if s.deltaLen[n] == 0 {
		return
	}
	d := s.takeDelta(n)
	s.propagate(n, s.succs[n], &d, nil)
	if s.kind[n] == varNode {
		s.processUses(n, &d)
	}
	s.recycleDelta(d)
}

// processUses applies var node n's registered load/store/call uses to
// a batch d of newly arrived heap objects: field expansion and
// receiver dispatch, the per-element part of a flush.
func (s *solver) processUses(n int32, d *bits.Set) {
	ctx := Ctx(s.nodeB[n])
	for i := range s.loadUses[n] {
		u := s.loadUses[n][i]
		d.ForEach(func(hc int32) {
			s.work++
			s.addEdge(s.fieldNodeID(hc, u.field), u.dst, ir.None)
		})
	}
	for i := range s.storeUses[n] {
		u := s.storeUses[n][i]
		d.ForEach(func(hc int32) {
			s.work++
			s.addEdge(u.src, s.fieldNodeID(hc, u.field), ir.None)
		})
	}
	for i := range s.callUses[n] {
		u := s.callUses[n][i]
		d.ForEach(func(hc int32) {
			s.work++
			s.dispatch(u.call, ctx, hc)
		})
	}
}

func (s *solver) finalize() {
	s.varNodes = make(map[ir.VarID][]int32)
	for n := range s.kind {
		if s.kind[n] == varNode {
			v := ir.VarID(s.nodeA[n])
			s.varNodes[v] = append(s.varNodes[v], int32(n))
		}
		if l := int(s.ptLen[n]); l > s.peakPT {
			s.peakPT = l
		}
	}
}
