package bits

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Error("zero value should be empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Error("Add should report change exactly once")
	}
	if !s.Has(5) || s.Has(6) {
		t.Error("Has wrong")
	}
	if s.Len() != 1 {
		t.Error("Len wrong")
	}
}

func TestAddLargeValues(t *testing.T) {
	var s Set
	vals := []int32{0, 63, 64, 65, 1000, 100000}
	for _, v := range vals {
		s.Add(v)
	}
	if s.Len() != len(vals) {
		t.Errorf("Len = %d, want %d", s.Len(), len(vals))
	}
	got := s.Elems()
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("Elems[%d] = %d, want %d", i, got[i], v)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	var a, b Set
	for i := int32(0); i < 200; i += 3 {
		a.Add(i)
	}
	for i := int32(198); i >= 0; i -= 3 {
		b.Add(i)
	}
	if !a.Equal(&b) {
		t.Error("same elements added in opposite orders not equal")
	}
	b.Add(1)
	if a.Equal(&b) {
		t.Error("sets differing in one element still equal")
	}
	// Equal with different offsets and word lengths: trailing and
	// leading zero words are not elements.
	small := Set{words: []uint64{2}}
	big := Set{words: []uint64{2, 0, 0, 0}}
	shifted := Set{off: 3, words: []uint64{0, 0}}
	var empty Set
	if !small.Equal(&big) || !big.Equal(&small) {
		t.Error("Equal should ignore trailing zero words")
	}
	if !shifted.Equal(&empty) || !empty.Equal(&shifted) {
		t.Error("Equal should treat an all-zero array as empty")
	}
	if small.Equal(&shifted) || shifted.Equal(&small) {
		t.Error("non-empty set equal to an empty one")
	}
}

func TestClear(t *testing.T) {
	var s Set
	s.Add(10)
	s.Add(500)
	s.Clear()
	if !s.Empty() {
		t.Error("Clear did not empty the set")
	}
	if !s.Add(10) {
		t.Error("Add after Clear should report change")
	}
}

// TestQuickAgainstMap property-tests Set against a map[int32]bool
// model under random operation sequences.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint32) bool {
		var s Set
		model := map[int32]bool{}
		for _, op := range ops {
			v := int32(op % 1024)
			switch (op / 1024) % 2 {
			case 0:
				changed := s.Add(v)
				if changed == model[v] {
					return false
				}
				model[v] = true
			case 1:
				if s.Has(v) != model[v] {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for v := range model {
			if !s.Has(v) {
				return false
			}
		}
		ok := true
		s.ForEach(func(v int32) {
			if !model[v] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionWords property-tests the union kernel against a map
// model. Each operand is drawn from its own window of ids, so the sets
// have different offsets; skip and mask may be nil, and any set may be
// empty. The kernel must report the model's added and scanned counts,
// leave s as s ∪ ((src − skip) ∩ mask), add exactly the bits new to s
// to delta, and hand those same bits to fresh as non-zero words in
// ascending word order.
func TestQuickUnionWords(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// gen draws an operand's elements: nil (when allowed), none, or
		// up to 150 ids from a random window, in random order.
		gen := func(nilOK bool) []int32 {
			switch k := r.Intn(5); {
			case k == 0 && nilOK:
				return nil
			case k <= 1:
				return []int32{}
			}
			base, span := r.Int31n(2000), 1+r.Int31n(1500)
			xs := make([]int32, r.Intn(150))
			for i := range xs {
				xs[i] = base + r.Int31n(span)
			}
			return xs
		}
		build := func(xs []int32) *Set {
			if xs == nil {
				return nil
			}
			s := &Set{}
			for _, x := range xs {
				s.Add(x)
			}
			return s
		}
		model := func(xs ...[]int32) map[int32]bool {
			m := map[int32]bool{}
			for _, x := range slices.Concat(xs...) {
				m[x] = true
			}
			return m
		}
		keys := func(m map[int32]bool) []int32 {
			xs := make([]int32, 0, len(m))
			for x := range m {
				xs = append(xs, x)
			}
			slices.Sort(xs)
			return xs
		}
		sx, srcx, skipx, maskx, deltax := gen(false), gen(false), gen(true), gen(true), gen(false)

		sM, skipM, maskM := model(sx), model(skipx), model(maskx)
		scanned, fresh := 0, map[int32]bool{}
		for x := range model(srcx) {
			if skipM[x] {
				continue
			}
			scanned++
			if (maskx == nil || maskM[x]) && !sM[x] {
				fresh[x] = true
			}
		}
		newBits := keys(fresh)
		wantS, wantDelta := keys(model(sx, newBits)), keys(model(deltax, newBits))

		for _, withFresh := range []bool{false, true} {
			s, delta := build(sx), build(deltax)
			var hook func(int32, uint64)
			var got []int32
			ordered := true
			if withFresh {
				last := int32(-1)
				hook = func(base int32, diff uint64) {
					if diff == 0 || base%64 != 0 || base <= last {
						ordered = false
					}
					last = base
					for ; diff != 0; diff &= diff - 1 {
						got = append(got, base+int32(bits.TrailingZeros64(diff)))
					}
				}
			}
			added, sc := s.UnionWords(build(srcx), build(skipx), build(maskx), delta, hook)
			switch {
			case added != len(newBits) || sc != scanned:
				t.Logf("seed %d: added, scanned = %d, %d; want %d, %d", seed, added, sc, len(newBits), scanned)
			case !slices.Equal(s.Elems(), wantS):
				t.Logf("seed %d: s = %v, want %v", seed, s.Elems(), wantS)
			case !slices.Equal(delta.Elems(), wantDelta):
				t.Logf("seed %d: delta = %v, want %v", seed, delta.Elems(), wantDelta)
			case withFresh && (!ordered || !slices.Equal(got, newBits)):
				t.Logf("seed %d: fresh saw %v (ordered %v), want %v", seed, got, ordered, newBits)
			default:
				continue
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var s Set
	for i := 0; i < b.N; i++ {
		s.Add(int32(r.Intn(1 << 16)))
	}
}
