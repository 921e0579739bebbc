package pta

import mathbits "math/bits"

// This file holds the solver's interning data structures: open-
// addressing hash tables replacing the generic Go maps that used to
// back hcIdx/nodeIdx/mcIdx/cgSeen. The interning access pattern is
// lookup-heavy (every constraint touching a node re-interns its key)
// with monotone growth and no deletion, which a flat table with linear
// probing serves with one cache line per hit and no per-entry
// allocation.

// hash64 is the splitmix64 finalizer — a cheap, well-mixing hash for
// already-packed integer keys.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// internTable maps uint64 keys to non-negative int32 ids. The zero
// value is an empty table ready to use. Values must be >= 0: negative
// values mark empty slots internally.
type internTable struct {
	keys []uint64
	vals []int32 // -1 = empty slot
	n    int
}

// get returns the id interned for key.
func (t *internTable) get(key uint64) (int32, bool) {
	if len(t.vals) == 0 {
		return 0, false
	}
	mask := uint64(len(t.vals) - 1)
	for i := hash64(key) & mask; ; i = (i + 1) & mask {
		v := t.vals[i]
		if v < 0 {
			return 0, false
		}
		if t.keys[i] == key {
			return v, true
		}
	}
}

// put inserts key with id val. key must not already be present and val
// must be >= 0 — interning call sites always get-miss before putting.
func (t *internTable) put(key uint64, val int32) {
	if 4*(t.n+1) >= 3*len(t.vals) {
		t.rehash()
	}
	mask := uint64(len(t.vals) - 1)
	i := hash64(key) & mask
	for t.vals[i] >= 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	t.vals[i] = val
	t.n++
}

// len returns the number of interned keys.
func (t *internTable) len() int { return t.n }

// rehash doubles the slot count (the tables only grow) and reinserts
// every entry.
func (t *internTable) rehash() {
	size := 2 * len(t.vals)
	if size < 16 {
		size = 16
	}
	keys := make([]uint64, size)
	vals := make([]int32, size)
	for i := range vals {
		vals[i] = -1
	}
	mask := uint64(size - 1)
	for i, v := range t.vals {
		if v < 0 {
			continue
		}
		k := t.keys[i]
		j := hash64(k) & mask
		for vals[j] >= 0 {
			j = (j + 1) & mask
		}
		keys[j] = k
		vals[j] = v
	}
	t.keys = keys
	t.vals = vals
}

// pairSet is a set of (uint64, uint64) keys: an open-addressing slot
// table indexing into dense entry arrays, which also hold the keys a
// rehash reinserts. It backs the call-graph-edge set (whose 128-bit
// keys do not fit internTable) and the constraint-edge dedup set. The
// zero value is an empty set ready to use.
type pairSet struct {
	slots  []int32 // index into e1/e2, -1 = empty
	e1, e2 []uint64
}

func pairHash(a, b uint64) uint64 {
	return hash64(a ^ mathbits.RotateLeft64(hash64(b), 31))
}

// insert adds (a, b) and reports whether it was new.
func (p *pairSet) insert(a, b uint64) bool {
	if 4*(len(p.e1)+1) >= 3*len(p.slots) {
		p.rehash()
	}
	mask := uint64(len(p.slots) - 1)
	i := pairHash(a, b) & mask
	for {
		s := p.slots[i]
		if s < 0 {
			break
		}
		if p.e1[s] == a && p.e2[s] == b {
			return false
		}
		i = (i + 1) & mask
	}
	p.slots[i] = int32(len(p.e1))
	p.e1 = append(p.e1, a)
	p.e2 = append(p.e2, b)
	return true
}

// len returns the number of pairs in the set.
func (p *pairSet) len() int { return len(p.e1) }

func (p *pairSet) rehash() {
	size := 2 * len(p.slots)
	if size < 16 {
		size = 16
	}
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(size - 1)
	for s := range p.e1 {
		i := pairHash(p.e1[s], p.e2[s]) & mask
		for slots[i] >= 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(s)
	}
	p.slots = slots
}
