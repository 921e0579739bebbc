package bits

import (
	"math/rand"
	"sort"
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
	if !s.Remove(5) || s.Remove(5) {
		t.Error("Remove should report change exactly once")
	}
	if s.Has(5) {
		t.Error("Remove did not remove")
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

func TestUnionInto(t *testing.T) {
	var a, b Set
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(3)
	b.Add(100)
	delta := a.UnionInto(&b, nil)
	sort.Slice(delta, func(i, j int) bool { return delta[i] < delta[j] })
	if len(delta) != 2 || delta[0] != 3 || delta[1] != 100 {
		t.Errorf("delta = %v, want [3 100]", delta)
	}
	if a.Len() != 4 {
		t.Errorf("a.Len = %d, want 4", a.Len())
	}
	// Second union adds nothing.
	if d := a.UnionInto(&b, nil); len(d) != 0 {
		t.Errorf("second UnionInto delta = %v, want empty", d)
	}
}

func TestUnion(t *testing.T) {
	var a, b Set
	b.Add(7)
	if !a.Union(&b) || a.Union(&b) {
		t.Error("Union change reporting wrong")
	}
	if !a.Has(7) {
		t.Error("Union did not add")
	}
}

func TestCloneAndEqual(t *testing.T) {
	var a Set
	for i := int32(0); i < 200; i += 3 {
		a.Add(i)
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone not equal")
	}
	c.Add(1)
	if a.Equal(c) {
		t.Error("mutated clone still equal")
	}
	// Equal with different word lengths.
	var small, big Set
	small.Add(1)
	big.Add(1)
	big.Add(1000)
	big.Remove(1000)
	if !small.Equal(&big) || !big.Equal(&small) {
		t.Error("Equal should ignore trailing zero words")
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
			switch (op / 1024) % 3 {
			case 0:
				changed := s.Add(v)
				if changed == model[v] {
					return false
				}
				model[v] = true
			case 1:
				changed := s.Remove(v)
				if changed != model[v] {
					return false
				}
				delete(model, v)
			case 2:
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

// TestQuickUnionInto property-tests that UnionInto's delta is exactly
// the set difference and the result is the union.
func TestQuickUnionInto(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b Set
		am := map[int32]bool{}
		bm := map[int32]bool{}
		for _, x := range xs {
			a.Add(int32(x))
			am[int32(x)] = true
		}
		for _, y := range ys {
			b.Add(int32(y))
			bm[int32(y)] = true
		}
		delta := a.UnionInto(&b, nil)
		seen := map[int32]bool{}
		for _, d := range delta {
			if am[d] || !bm[d] || seen[d] {
				return false // delta must be b-minus-a, without dups
			}
			seen[d] = true
		}
		for v := range bm {
			if !am[v] && !seen[v] {
				return false // every new element must be reported
			}
			if !a.Has(v) {
				return false // union must contain b
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
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

func BenchmarkUnionInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var src Set
	for i := 0; i < 4096; i++ {
		src.Add(int32(r.Intn(1 << 16)))
	}
	b.ResetTimer()
	var delta []int32
	for i := 0; i < b.N; i++ {
		var dst Set
		delta = dst.UnionInto(&src, delta[:0])
	}
}
