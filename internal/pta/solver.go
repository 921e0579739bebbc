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
	// derived it, so Result.ExplainHeap can reconstruct a shortest
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

// edge is one cell of the solver's edge arena: the subset constraint
// src ⊆ dst, for the node src whose successor list holds it, optionally
// filtered by a cast target type (only objects whose dynamic type is a
// subtype of filter flow across a filtered edge). next is the arena
// index of the list's following cell; 0 ends the list.
type edge struct {
	dst    int32
	filter ir.TypeID // ir.None = unfiltered
	next   int32
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

// nodeUses holds a var node's load, store and call uses: what its flush
// must apply to each newly arrived heap object. Only var nodes that are
// the base of a load, store or receiver call have one.
type nodeUses struct {
	loads  []loadUse
	stores []storeUse
	calls  []callUse
}

// cgPack packs a context-qualified call-graph edge (invo, callerCtx,
// meth, calleeCtx) into the pairSet's two-word key.
func cgPack(invo ir.InvoID, callerCtx Ctx, meth ir.MethodID, calleeCtx Ctx) (uint64, uint64) {
	return uint64(uint32(invo))<<32 | uint64(uint32(callerCtx)),
		uint64(uint32(meth))<<32 | uint64(uint32(calleeCtx))
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
	// edits is the pre-solve constraint-graph edit set (nil for a pure
	// context analysis). Consulted once per call-graph edge and per
	// dispatch; nil costs one pointer check there and leaves work
	// accounting untouched.
	edits *Edits

	// Context-qualified heap objects, interned to dense ids ("hc ids").
	hcIdx  internTable
	hcHeap []ir.HeapID
	hcCtx  []HCtx

	// Constraint-graph nodes. No per-node slice has an element type
	// with a pointer in it (growNodes enforces this), so the node arrays
	// cost the garbage collector nothing to scan. State that only some
	// nodes need lives in side tables, which a node indexes by an int32
	// slot; slot 0 means none.
	nodeIdx internTable
	kind    []nodeKind
	nodeA   []int32 // var id | hc id | field id
	nodeB   []int32 // ctx     | field | 0
	// ptSlot indexes the node's points-to set in pts, taken at its first
	// fact. deltaSlot indexes its pending facts (delta ⊆ pt) in the
	// deltas pool and is held only while the node has pending facts.
	ptSlot    []int32
	deltaSlot []int32
	// ptLen and deltaLen track |pt| and |delta| per node incrementally
	// (every insertion path knows how many bits it added), so
	// cardinality queries never popcount-scan a set.
	ptLen    []int32
	deltaLen []int32
	// succHead and succTail are the first and last cells of the node's
	// successor list in edges, kept in insertion order.
	succHead []int32
	succTail []int32
	// useSlot indexes the node's load/store/call uses in uses.
	useSlot []int32
	inWL    []bool

	// pts[0] is the shared, read-only empty set of every node without
	// facts; deltas[0] likewise. A slot in freeDelta holds an empty set
	// whose storage the next node to need a delta reuses. edges[0] and
	// uses[0] are unused.
	pts       []bits.Set
	deltas    []bits.Set
	freeDelta []int32
	edges     []edge
	uses      []nodeUses
	wl        []int32
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

	// finalize() products: var v's nodes, in node order, are
	// varNodeIDs[varOff[v]:varOff[v+1]].
	varOff     []int32
	varNodeIDs []int32
	peakPT     int
}

// Solve runs the analysis over prog under the context policy pol and
// the pre-solve constraint-graph edits (nil for none), creating
// contexts in tab. The worklist loop polls ctx every checkCtxEvery
// iterations, so cancellation (or a context deadline) stops the run
// promptly.
//
// Solve returns a non-nil Result for every run it starts. On a clean
// fixpoint the error is nil; if the work budget runs out first, the
// error wraps ErrBudgetExceeded; if ctx is cancelled or its deadline
// passes, the error wraps ctx.Err(). In both failure cases the Result
// is a sound-in-progress under-approximation (Complete is false).
func Solve(ctx context.Context, prog *ir.Program, pol Policy, edits *Edits, tab *Table, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &solver{
		prog:        prog,
		pol:         pol,
		tab:         tab,
		edits:       edits,
		pts:         make([]bits.Set, 1),
		deltas:      make([]bits.Set, 1),
		edges:       make([]edge, 1),
		uses:        make([]nodeUses, 1),
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
		Analysis:     pol.Name(),
		Complete:     !s.exceeded && s.ctxErr == nil,
		Work:         s.work,
		Derivations:  s.derivations,
		Propagations: s.propagations,
		Elapsed:      time.Since(start), //introvet:allow wall-clock reporting only; every other Result field is schedule-deterministic
		s:            s,
	}
	switch {
	case s.ctxErr != nil:
		return res, fmt.Errorf("pta: %s interrupted: %w", pol.Name(), s.ctxErr)
	case s.exceeded:
		return res, fmt.Errorf("pta: %s: %w after %d work units", pol.Name(), ErrBudgetExceeded, s.work)
	}
	return res, nil
}

// Analyze is a convenience wrapper: parse the analysis name, build the
// policy, and solve. Error semantics are those of Solve: on budget
// exhaustion or cancellation the partial Result is returned alongside
// the error.
//
// Analyze covers the pure context families only. "cs" is rejected
// here: its edit set comes from the pattern detector in
// internal/cutshortcut (which pta cannot import), so running it
// through NewPolicy alone would silently degrade to an insensitive
// analysis under a misleading name. Pass cutshortcut.Detect's edit
// set to Solve, or go through the analysis registry, instead.
func Analyze(ctx context.Context, prog *ir.Program, analysis string, opts Options) (*Result, error) {
	spec, err := ParseSpec(analysis)
	if err != nil {
		return nil, err
	}
	if spec.Flavor == CutShortcut {
		return nil, fmt.Errorf("pta: %q needs the cut-shortcut edit set; pass cutshortcut.Detect's edits to Solve (or go through the analysis registry)", analysis)
	}
	tab := NewTable()
	return Solve(ctx, prog, NewPolicy(spec, prog, tab), nil, tab, opts)
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
	s.ptSlot = append(s.ptSlot, 0)
	s.deltaSlot = append(s.deltaSlot, 0)
	s.ptLen = append(s.ptLen, 0)
	s.deltaLen = append(s.deltaLen, 0)
	s.succHead = append(s.succHead, 0)
	s.succTail = append(s.succTail, 0)
	s.useSlot = append(s.useSlot, 0)
	s.inWL = append(s.inWL, false)
	return id
}

// growNodes doubles the capacity of every per-node parallel slice in
// lockstep. node() is the only append site, so the slices share one
// length; doubling them together keeps append's growth policy — which
// decays toward 1.25x for large slices and so reallocates (and zeroes)
// multi-megabyte arrays repeatedly during a context explosion — out of
// the solver's hottest path. regrow's type set admits only pointer-free
// element types, so the copies are plain memory moves: no write
// barriers, and nothing for the collector to scan afterwards.
func (s *solver) growNodes() {
	c := max(2*len(s.kind), 1024)
	s.kind = regrow(s.kind, c)
	s.nodeA = regrow(s.nodeA, c)
	s.nodeB = regrow(s.nodeB, c)
	s.ptSlot = regrow(s.ptSlot, c)
	s.deltaSlot = regrow(s.deltaSlot, c)
	s.ptLen = regrow(s.ptLen, c)
	s.deltaLen = regrow(s.deltaLen, c)
	s.succHead = regrow(s.succHead, c)
	s.succTail = regrow(s.succTail, c)
	s.useSlot = regrow(s.useSlot, c)
	s.inWL = regrow(s.inWL, c)
}

// regrow copies x into a fresh slice of capacity c.
func regrow[T nodeKind | int32 | bool](x []T, c int) []T {
	return append(make([]T, 0, c), x...)
}

// ptOf returns node n's points-to set: the shared empty set if n has no
// facts. The pointer is good until the next slot is taken, so callers
// that may take one meanwhile copy the set instead.
func (s *solver) ptOf(n int32) *bits.Set { return &s.pts[s.ptSlot[n]] }

// takeSlots gives node n a points-to slot and a delta slot ahead of an
// insertion, unless it holds them already. It appends to pts and
// deltas, so a caller must not hold a pointer into either table across
// it.
func (s *solver) takeSlots(n int32) {
	if s.ptSlot[n] == 0 {
		s.ptSlot[n] = int32(len(s.pts))
		s.pts = append(s.pts, bits.Set{})
	}
	if s.deltaSlot[n] == 0 {
		if k := len(s.freeDelta); k > 0 {
			s.deltaSlot[n] = s.freeDelta[k-1]
			s.freeDelta = s.freeDelta[:k-1]
		} else {
			s.deltaSlot[n] = int32(len(s.deltas))
			s.deltas = append(s.deltas, bits.Set{})
		}
	}
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
	if s.ptOf(n).Has(hc) {
		return
	}
	s.takeSlots(n)
	s.ptOf(n).Add(hc)
	if s.prov != nil {
		s.prov.stamp(n, provIntro, hc&^63, 1<<uint(hc&63))
	}
	// delta ⊆ pt between flushes, so a fact new to pt is new to delta
	// too.
	s.deltas[s.deltaSlot[n]].Add(hc)
	s.ptLen[n]++
	s.deltaLen[n]++
	s.push(n)
	s.work++
	s.derivations++
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
	c := int32(len(s.edges))
	s.edges = append(s.edges, edge{dst: dst, filter: filter})
	if t := s.succTail[src]; t != 0 {
		s.edges[t].next = c
	} else {
		s.succHead[src] = c
	}
	s.succTail[src] = c
	if s.ptLen[src] == s.deltaLen[src] {
		return // every fact of src is pending: nothing is flushed yet
	}
	// Propagate across the new edge only: the list's last cell. dst's
	// slots are taken before the pointers into src's sets, which the
	// appends could otherwise leave dangling.
	s.takeSlots(dst)
	s.propagate(src, c, s.ptOf(src), &s.deltas[s.deltaSlot[src]])
}

// propagate pushes the elements of src not in skip from node from
// across each edge of the list that starts at arena cell c (modulo its
// filter), one word-kernel call per edge. It charges what a
// per-element loop would: one work unit per scanned element plus one
// per new fact. With provenance on, each edge's new-bit words are
// stamped with from. It walks a whole edge list so that a node flush
// makes one call here, not one per edge: most pushes move only a few
// bits, and a second call per edge cost the figure runs about 15% of
// their main-pass time. src and skip must not point into pts or deltas
// unless every destination already holds its slots.
func (s *solver) propagate(from, c int32, src, skip *bits.Set) {
	for ; c != 0; c = s.edges[c].next {
		e := s.edges[c]
		var mask *bits.Set
		if e.filter != ir.None {
			mask = s.filterMask(e.filter, src)
		}
		var fresh func(base int32, diff uint64)
		if p := s.prov; p != nil {
			dst := e.dst
			fresh = func(base int32, diff uint64) { p.stamp(dst, from, base, diff) }
		}
		s.takeSlots(e.dst)
		added, scanned := s.ptOf(e.dst).UnionWords(src, skip, mask, &s.deltas[s.deltaSlot[e.dst]], fresh)
		s.work += int64(scanned) + int64(added)
		s.propagations += int64(scanned)
		if added > 0 {
			s.ptLen[e.dst] += int32(added)
			s.deltaLen[e.dst] += int32(added)
			s.derivations += int64(added)
			s.push(e.dst)
		} else if s.deltaLen[e.dst] == 0 {
			s.recycleDelta(s.takeDelta(e.dst)) // dst gained nothing to flush
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
	// The loops below iterate a copy of base's points-to set: the edges
	// they add may take slots, and a pointer into pts would dangle.
	for _, l := range m.Loads {
		base := s.varNodeID(l.Base, ctx)
		dst := s.varNodeID(l.To, ctx)
		u := s.usesOf(base)
		u.loads = append(u.loads, loadUse{field: l.Field, dst: dst})
		// Apply to already-known receivers.
		pt := *s.ptOf(base)
		pt.ForEach(func(hc int32) {
			s.work++
			s.addEdge(s.fieldNodeID(hc, l.Field), dst, ir.None)
		})
	}
	for _, st := range m.Stores {
		base := s.varNodeID(st.Base, ctx)
		src := s.varNodeID(st.From, ctx)
		u := s.usesOf(base)
		u.stores = append(u.stores, storeUse{field: st.Field, src: src})
		pt := *s.ptOf(base)
		pt.ForEach(func(hc int32) {
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
		u := s.usesOf(base)
		u.calls = append(u.calls, callUse{call: c})
		pt := *s.ptOf(base)
		pt.ForEach(func(hc int32) {
			s.work++
			s.dispatch(c, ctx, hc)
		})
	}
}

// usesOf returns var node n's uses, giving it a slot in uses first if
// it has none. The pointer is good until the next slot is taken.
func (s *solver) usesOf(n int32) *nodeUses {
	if s.useSlot[n] == 0 {
		s.useSlot[n] = int32(len(s.uses))
		s.uses = append(s.uses, nodeUses{})
	}
	return &s.uses[s.useSlot[n]]
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
		Edges:            len(s.edges) - 1,
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

// takeDelta detaches node n's delta slot and returns it with the set it
// holds, by value: a flush may append to the pool, which would leave a
// pointer into it dangling. Facts derived for n meanwhile take a fresh
// slot. recycleDelta hands the slot back to the pool.
func (s *solver) takeDelta(n int32) (int32, bits.Set) {
	slot := s.deltaSlot[n]
	s.deltaSlot[n] = 0
	s.deltaLen[n] = 0
	return slot, s.deltas[slot]
}

// recycleDelta empties a detached delta set and returns its slot, with
// the set's storage, to the pool.
func (s *solver) recycleDelta(slot int32, d bits.Set) {
	d.Clear()
	s.deltas[slot] = d
	s.freeDelta = append(s.freeDelta, slot)
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
	slot, d := s.takeDelta(n)
	s.propagate(n, s.succHead[n], &d, nil)
	if s.useSlot[n] != 0 {
		s.processUses(n, &d)
	}
	s.recycleDelta(slot, d)
}

// processUses applies var node n's registered load/store/call uses to
// a batch d of newly arrived heap objects: field expansion and
// receiver dispatch, the per-element part of a flush.
func (s *solver) processUses(n int32, d *bits.Set) {
	ctx := Ctx(s.nodeB[n])
	us := &s.uses[s.useSlot[n]] // only processMethod appends to uses
	for i := range us.loads {
		u := us.loads[i]
		d.ForEach(func(hc int32) {
			s.work++
			s.addEdge(s.fieldNodeID(hc, u.field), u.dst, ir.None)
		})
	}
	for i := range us.stores {
		u := us.stores[i]
		d.ForEach(func(hc int32) {
			s.work++
			s.addEdge(u.src, s.fieldNodeID(hc, u.field), ir.None)
		})
	}
	for i := range us.calls {
		u := us.calls[i]
		d.ForEach(func(hc int32) {
			s.work++
			s.dispatch(u.call, ctx, hc)
		})
	}
}

// finalize indexes var nodes by var id and releases the state that
// only the solve needs, so a Result held after Solve keeps what its
// methods read: nodes and their points-to sets, the edge arena
// (ConstraintStats), the call graph and the interned heap and method
// contexts. The kept node slices are trimmed to their length, shedding
// the headroom growNodes doubled them to.
func (s *solver) finalize() {
	// A counting sort by var id, stable in node order.
	nv := s.prog.NumVars()
	s.varOff = make([]int32, nv+1)
	for n, k := range s.kind {
		if k == varNode {
			s.varOff[s.nodeA[n]+1]++
		}
		if l := int(s.ptLen[n]); l > s.peakPT {
			s.peakPT = l
		}
	}
	for v := 0; v < nv; v++ {
		s.varOff[v+1] += s.varOff[v]
	}
	s.varNodeIDs = make([]int32, s.varOff[nv])
	next := append([]int32(nil), s.varOff[:nv]...)
	for n, k := range s.kind {
		if k == varNode {
			v := s.nodeA[n]
			s.varNodeIDs[next[v]] = int32(n)
			next[v]++
		}
	}

	s.edgeSeen, s.nodeIdx, s.hcIdx, s.mcIdx = pairSet{}, internTable{}, internTable{}, internTable{}
	s.filters = nil
	s.wl, s.inWL, s.pendingMC = nil, nil, nil
	s.deltas, s.freeDelta, s.deltaSlot, s.deltaLen = nil, nil, nil, nil
	s.uses, s.useSlot, s.succTail = nil, nil, nil
	n := len(s.kind)
	s.kind, s.nodeA, s.nodeB = regrow(s.kind, n), regrow(s.nodeA, n), regrow(s.nodeB, n)
	s.ptSlot, s.ptLen, s.succHead = regrow(s.ptSlot, n), regrow(s.ptLen, n), regrow(s.succHead, n)
}

// varNodesOf returns var v's nodes in node order.
func (s *solver) varNodesOf(v ir.VarID) []int32 {
	if v < 0 || int(v) >= len(s.varOff)-1 {
		return nil
	}
	return s.varNodeIDs[s.varOff[v]:s.varOff[v+1]]
}
