package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"sync"

	"introspect/internal/analysis"
	"introspect/internal/bits"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
)

// progKey content-addresses a program: the language, the display name,
// and the source text. Two requests with byte-identical source resolve
// to the same key — and, through progCache, to the same *ir.Program
// pointer, which is what lets one request's insensitive pass serve as
// another's pre-pass (analysis.Request.First applies only to the
// program it was solved over).
func progKey(lang, name, source string) string {
	h := sha256.New()
	h.Write([]byte(lang))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// progID is a program as a request names it. progCache finds a
// program by this exact text, so no hash collision can alias two.
type progID struct{ lang, name, source string }

// resultKey content-addresses a computation: the program hash crossed
// with the Job's canonical JSON and the resolved limits. Everything
// that can change the analysis output is in the key; nothing else is.
// Budget-exhausted runs are keyed like complete ones — for a fixed
// budget the solver is deterministic, so "ran out of budget after
// exactly N units" is as cacheable an outcome as success.
func resultKey(progKey string, canonicalJob []byte, budget int64, provenance bool) string {
	return hex.EncodeToString(keyHash(progKey, canonicalJob, budget, provenance).Sum(nil))
}

// keyHash is the SHA-256 state of a result key before it is summed.
func keyHash(progKey string, canonicalJob []byte, budget int64, provenance bool) hash.Hash {
	h := sha256.New()
	h.Write([]byte(progKey))
	h.Write([]byte{0})
	h.Write(canonicalJob)
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatInt(budget, 10)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatBool(provenance)))
	return h
}

// outcomeKey content-addresses an introspective main pass: a result
// key whose job has its thresholds cleared, crossed with the refinement
// they selected. The thresholds reach the main pass only through that
// refinement, so two jobs that select alike share the key. The sets are
// hashed element by element, each ended by a value no element takes,
// since equal bits.Sets may hold different words.
func outcomeKey(progKey string, jobWithoutThresholds []byte, budget int64, provenance bool, ref *pta.Refinement) string {
	h := keyHash(progKey, jobWithoutThresholds, budget, provenance)
	var buf []byte
	for _, set := range [...]*bits.Set{&ref.Heaps, &ref.Invos, &ref.Methods} {
		set.ForEach(func(x int32) { buf = binary.LittleEndian.AppendUint32(buf, uint32(x)) })
		buf = binary.LittleEndian.AppendUint32(buf, math.MaxUint32)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// progEntry is one cached parse: the shared program pointer (or the
// deterministic parse error) plus the insensitive pass, and its
// introspection metrics, that the entry offers every later request
// (analysis.Request.First).
type progEntry struct {
	key string // progKey of the entry's program, computed once
	// readyCh closes when prog/err are populated; concurrent first
	// loads for the same source wait on it instead of re-parsing.
	readyCh chan struct{}
	prog    *ir.Program
	err     error

	mu      sync.Mutex
	first   *pta.Result
	metrics *introspect.Metrics // of first
}

func (e *progEntry) ready() <-chan struct{} { return e.readyCh }

// offer returns the entry's insensitive pass and its metrics, nil
// until a run has offered one.
func (e *progEntry) offer() (*pta.Result, *introspect.Metrics) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.first, e.metrics
}

// keep records the pass res offers (analysis.Result.Offer), unless the
// entry has one already. First writer wins: the pass is a pure
// function of the program, so any one is as good as another.
func (e *progEntry) keep(res *analysis.Result) {
	if first, _ := e.offer(); first != nil {
		return
	}
	first, m := res.Offer()
	if first == nil {
		return
	}
	e.mu.Lock()
	if e.first == nil {
		e.first, e.metrics = first, m
	}
	e.mu.Unlock()
}

// progCache maps progID → progEntry in a sync.Map, so no lookup, which
// hashes and compares a whole source, holds a shared lock. Parses are
// deduplicated: the first solve for a program parses it once, and
// every later request (and every concurrent one) shares the
// pointer. Entries are never evicted — programs are small compared to
// solver state, and pointer identity must be stable for the offered
// pass; a daemon fronting unbounded distinct programs should
// recycle, which Close handles by dropping the whole service.
type progCache struct{ entries sync.Map }

// key returns req's progKey: a known program's entry holds it, so
// only a program no solve has made an entry for is hashed.
func (c *progCache) key(req Request) string {
	if e, ok := c.entries.Load(progID{req.Lang, req.Name, req.Source}); ok {
		return e.(*progEntry).key
	}
	return progKey(req.Lang, req.Name, req.Source)
}

// load returns req's entry, made with key and parsed via fn on first
// use (outside any lock: parses can be slow); concurrent first loads
// wait on the entry's done channel for that one parse.
func (c *progCache) load(req Request, key string, fn func() (*ir.Program, error)) *progEntry {
	e := &progEntry{key: key, readyCh: make(chan struct{})}
	if prior, ok := c.entries.LoadOrStore(progID{req.Lang, req.Name, req.Source}, e); ok {
		e = prior.(*progEntry)
		<-e.ready()
		return e
	}
	e.prog, e.err = fn()
	if e.err != nil { // keep no source a rejected request brought
		c.entries.CompareAndDelete(progID{req.Lang, req.Name, req.Source}, e)
	}
	close(e.readyCh)
	return e
}

// lru is a mutex-guarded least-recently-used map holding at most cap
// entries: the memory result cache, the main-pass outcomes, and the
// index of the disk store.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recent; values are *lruItem[V]
	items map[string]*list.Element // key → element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns key's value and makes it the most recent entry.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put stores val as key's value and makes it the most recent entry,
// returning the keys it evicted to stay within capacity.
func (c *lru[V]) put(key string, val V) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruItem[V]{key: key, val: val})
	}
	var evicted []string
	for c.order.Len() > c.cap {
		last := c.order.Remove(c.order.Back()).(*lruItem[V])
		delete(c.items, last.key)
		evicted = append(evicted, last.key)
	}
	return evicted
}

func (c *lru[V]) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
