package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"introspect/internal/ir"
	"introspect/internal/pta"
)

// progKey content-addresses a program: the language, the display name,
// and the source text. Two requests with byte-identical source resolve
// to the same key — and, through progCache, to the same *ir.Program
// pointer, which is what lets one request's insensitive pass serve as
// another's injected pre-pass (analysis.Request.First requires pointer
// identity).
func progKey(lang, name, source string) string {
	h := sha256.New()
	h.Write([]byte(lang))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// resultKey content-addresses a computation: the program hash crossed
// with the Job's canonical JSON and the resolved limits. Everything
// that can change the analysis output is in the key; nothing else is.
// Budget-exhausted runs are keyed like complete ones — for a fixed
// budget the solver is deterministic, so "ran out of budget after
// exactly N units" is as cacheable an outcome as success.
func resultKey(progKey string, canonicalJob []byte, budget int64, provenance bool) string {
	h := sha256.New()
	h.Write([]byte(progKey))
	h.Write([]byte{0})
	h.Write(canonicalJob)
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatInt(budget, 10)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatBool(provenance)))
	return hex.EncodeToString(h.Sum(nil))
}

// progEntry is one cached parse: the shared program pointer (or the
// deterministic parse error) plus, once any request has computed one,
// a complete context-insensitive result reused as later introspective
// requests' pre-pass.
type progEntry struct {
	// readyCh closes when prog/err are populated; concurrent first
	// loads for the same source wait on it instead of re-parsing.
	readyCh chan struct{}
	prog    *ir.Program
	err     error

	mu    sync.Mutex
	first *pta.Result
}

func (e *progEntry) ready() <-chan struct{} { return e.readyCh }

// sharedFirst returns the entry's reusable insensitive pass, nil if
// none has completed yet.
func (e *progEntry) sharedFirst() *pta.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.first
}

// offerFirst records a complete insensitive result for reuse. First
// writer wins; the pre-pass is a pure function of the program, so any
// complete candidate is as good as any other.
func (e *progEntry) offerFirst(r *pta.Result) {
	if r == nil || !r.Complete {
		return
	}
	e.mu.Lock()
	if e.first == nil {
		e.first = r
	}
	e.mu.Unlock()
}

// progCache maps progKey → progEntry. Parses are deduplicated: the
// first request for a source parses it once, under the entry's own
// once, and every later request (and every concurrent one) shares the
// pointer. Entries are never evicted — programs are small compared to
// solver state, and pointer identity must be stable for pre-pass
// injection; a daemon fronting unbounded distinct programs should
// recycle, which Close handles by dropping the whole service.
type progCache struct {
	mu      sync.Mutex
	entries map[string]*progEntry
}

func newProgCache() *progCache {
	return &progCache{entries: make(map[string]*progEntry)}
}

// load returns the cached entry for key, parsing via fn on first use.
// fn runs outside the cache lock (parses can be slow); concurrent
// first loads for the same key are collapsed through a per-entry
// sync.Once-like done channel.
func (c *progCache) load(key string, fn func() (*ir.Program, error)) *progEntry {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready()
		return e
	}
	e := &progEntry{readyCh: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.prog, e.err = fn()
	close(e.readyCh)
	return e
}

// lru is a mutex-guarded least-recently-used map holding at most cap
// entries: the memory result cache, and the index of the disk store.
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
