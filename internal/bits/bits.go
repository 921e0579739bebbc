// Package bits provides a growable bitset used for points-to sets.
//
// The solver in internal/pta identifies every context-qualified heap
// object with a small dense integer, so points-to sets are sets of small
// ints. Set is a thin, allocation-conscious wrapper around a []uint64
// that supports the operations the solver needs: insert, membership,
// difference-aware union, iteration, and cardinality.
//
// The backing array is offset-based: words[0] holds the elements of
// 64-bit word number off, not word 0. Heap-context ids are handed out
// in discovery order, so the sets materialized late in an exploding
// context-sensitive run hold only recent (large) ids; anchoring the
// array at the set's smallest word avoids allocating and zeroing an
// all-zero prefix of tens of kilobytes per set.
package bits

import "math/bits"

const wordBits = 64

// Set is a growable bitset. The zero value is an empty set ready to use.
type Set struct {
	// off is the conceptual word index of words[0].
	off   int
	words []uint64
}

// Add inserts x and reports whether the set changed.
func (s *Set) Add(x int32) bool {
	w := int(x)/wordBits - s.off
	if w < 0 || w >= len(s.words) {
		w = s.extend(int(x) / wordBits)
	}
	mask := uint64(1) << (uint(x) % wordBits)
	if s.words[w]&mask != 0 {
		return false
	}
	s.words[w] |= mask
	return true
}

// Has reports whether x is in the set.
func (s *Set) Has(x int32) bool {
	w := int(x)/wordBits - s.off
	if w < 0 || w >= len(s.words) {
		return false
	}
	return s.words[w]&(uint64(1)<<(uint(x)%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements but keeps the backing storage: the next
// Add re-anchors the array wherever the new contents live.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.words = s.words[:0]
	s.off = 0
}

// UnionWords is the solver's word-parallel difference-propagation
// kernel. It ORs into s the elements of src that are not in skip and
// are in mask, a whole word at a time, and ORs the bits that were new
// to s into delta. A nil skip removes nothing and a nil mask passes
// everything. It returns the number of new bits and the number of
// candidate elements scanned: src minus skip, before the mask is
// applied. That is the count a per-element propagation loop would
// have touched, which the solver charges its work budget for.
//
// If fresh is non-nil, it is called once for each word that gained
// bits, in ascending word order, with the word's first element and the
// bits new to s. fresh must not modify s or delta.
func (s *Set) UnionWords(src, skip, mask, delta *Set, fresh func(base int32, diff uint64)) (added, scanned int) {
	n := len(src.words)
	if n == 0 {
		return 0, 0
	}
	s.reserve(src.off, src.off+n)
	delta.reserve(src.off, src.off+n)
	so := src.off - s.off
	do := src.off - delta.off
	sw := s.words
	dw := delta.words
	for i, w := range src.words {
		if skip != nil {
			if j := i + src.off - skip.off; j >= 0 && j < len(skip.words) {
				w &^= skip.words[j]
			}
		}
		if w == 0 {
			continue
		}
		scanned += bits.OnesCount64(w)
		if mask != nil {
			j := i + src.off - mask.off
			if j < 0 || j >= len(mask.words) {
				continue
			}
			w &= mask.words[j]
		}
		diff := w &^ sw[i+so]
		if diff == 0 {
			continue
		}
		sw[i+so] |= diff
		dw[i+do] |= diff
		added += bits.OnesCount64(diff)
		if fresh != nil {
			fresh(int32((i+src.off)*wordBits), diff)
		}
	}
	return added, scanned
}

// ForEachDiff calls fn for each element of s that is not in o, in
// ascending order. fn may add elements to o (the solver's filter cache
// fills its known set this way); it must not mutate s.
func (s *Set) ForEachDiff(o *Set, fn func(int32)) {
	for i := 0; i < len(s.words); i++ {
		w := s.words[i]
		// Re-derive o's geometry each word: fn may have grown o.
		if j := i + s.off - o.off; j >= 0 && j < len(o.words) {
			w &^= o.words[j]
		}
		base := int32((i + s.off) * wordBits)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + int32(b))
			w &^= 1 << uint(b)
		}
	}
}

// ForEach calls fn for each element in ascending order.
func (s *Set) ForEach(fn func(int32)) {
	for i, w := range s.words {
		base := int32((i + s.off) * wordBits)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + int32(b))
			w &^= 1 << uint(b)
		}
	}
}

// Elems returns the elements in ascending order as a fresh slice.
func (s *Set) Elems() []int32 {
	out := make([]int32, 0, s.Len())
	s.ForEach(func(x int32) { out = append(out, x) })
	return out
}

// Equal reports whether s and o contain the same elements. Words
// outside either array are zero by construction, so comparing over the
// union of the two ranges suffices.
func (s *Set) Equal(o *Set) bool {
	lo, hi := s.off, s.off+len(s.words)
	if len(s.words) == 0 {
		lo, hi = o.off, o.off
	}
	if o.off < lo && len(o.words) > 0 {
		lo = o.off
	}
	if h := o.off + len(o.words); h > hi {
		hi = h
	}
	for w := lo; w < hi; w++ {
		var a, b uint64
		if i := w - s.off; i >= 0 && i < len(s.words) {
			a = s.words[i]
		}
		if j := w - o.off; j >= 0 && j < len(o.words) {
			b = o.words[j]
		}
		if a != b {
			return false
		}
	}
	return true
}

// extend makes conceptual word w addressable and returns its index.
func (s *Set) extend(w int) int {
	if len(s.words) == 0 {
		s.off = w
		s.growTail(1)
		return 0
	}
	if w < s.off {
		s.rebase(w)
	} else if w >= s.off+len(s.words) {
		s.growTail(w - s.off + 1)
	}
	return w - s.off
}

// reserve makes conceptual words [lo, hi) addressable.
func (s *Set) reserve(lo, hi int) {
	if len(s.words) == 0 {
		s.off = lo
		s.growTail(hi - lo)
		return
	}
	if lo < s.off {
		s.rebase(lo)
	}
	if n := hi - s.off; n > len(s.words) {
		s.growTail(n)
	}
}

// rebase re-anchors the array so that conceptual word lo (plus
// proportional headroom, so descending insertions amortize) is
// addressable.
func (s *Set) rebase(lo int) {
	newOff := lo - (len(s.words)/2 + 1)
	if newOff < 0 {
		newOff = 0
	}
	shift := s.off - newOff
	n := len(s.words) + shift
	nw := make([]uint64, n, n+n/2+4)
	copy(nw[shift:], s.words)
	s.words = nw
	s.off = newOff
}

// growTail ensures len(s.words) >= n, preserving contents. Storage past
// the old length is zero by construction: freshly made arrays are
// zeroed, and Clear zeroes before truncating.
func (s *Set) growTail(n int) {
	if cap(s.words) >= n {
		s.words = s.words[:n]
		return
	}
	nw := make([]uint64, n, n+n/2+4)
	copy(nw, s.words)
	s.words = nw
}
