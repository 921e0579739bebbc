package bits

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the set primitives the solver leans on, sized
// after real points-to workloads: a few thousand elements drawn from a
// few hundred thousand ids, both dense (insensitive runs) and clustered
// high (context explosions hand out large hc ids late — the case the
// offset representation exists for).

// randSet builds a set of n elements drawn from [lo, lo+span).
func randSet(r *rand.Rand, n int, lo, span int32) *Set {
	s := &Set{}
	for i := 0; i < n; i++ {
		s.Add(lo + r.Int31n(span))
	}
	return s
}

func BenchmarkAddDense(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]int32, 4096)
	for i := range xs {
		xs[i] = r.Int31n(1 << 14)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Set
		for _, x := range xs {
			s.Add(x)
		}
	}
}

// BenchmarkAddHighIDs inserts ids clustered near 150k into fresh sets —
// the allocation pattern of a context explosion. The offset
// representation keeps each set a few words instead of a ~19 KB
// zero-prefixed array.
func BenchmarkAddHighIDs(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	xs := make([]int32, 256)
	for i := range xs {
		xs[i] = 150_000 + r.Int31n(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Set
		for _, x := range xs {
			s.Add(x)
		}
	}
}

// benchUnion times the union kernel into a fresh set, twice: the
// second call is the all-duplicate fast path.
func benchUnion(b *testing.B, n int, lo, span int32) {
	b.Helper()
	r := rand.New(rand.NewSource(3))
	src := randSet(r, n, lo, span)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dst, delta Set
		dst.UnionWords(src, nil, nil, &delta, nil)
		dst.UnionWords(src, nil, nil, &delta, nil)
	}
}

func BenchmarkUnionWordsDense(b *testing.B)   { benchUnion(b, 4096, 0, 1<<14) }
func BenchmarkUnionWordsHighIDs(b *testing.B) { benchUnion(b, 4096, 150_000, 1<<14) }
func BenchmarkUnionWordsSparse(b *testing.B)  { benchUnion(b, 128, 0, 1<<18) }

// BenchmarkUnionWordsMasked exercises the filtered kernel the solver
// uses for type-filtered load/store propagation: src minus skip,
// intersected with mask.
func BenchmarkUnionWordsMasked(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	src := randSet(r, 4096, 0, 1<<14)
	skip := randSet(r, 2048, 0, 1<<14)
	mask := randSet(r, 8192, 0, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dst, delta Set
		dst.UnionWords(src, skip, mask, &delta, nil)
	}
}

// BenchmarkForEachDiff measures the iteration primitive behind the
// solver's filter-cache fill.
func BenchmarkForEachDiff(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	s := randSet(r, 4096, 0, 1<<14)
	o := randSet(r, 2048, 0, 1<<14)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		s.ForEachDiff(o, func(int32) { n++ })
	}
	_ = n
}
