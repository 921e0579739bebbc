package pta

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"introspect/internal/randprog"
	"introspect/internal/suite"
)

// Solver micro-benchmarks: one per context flavor over a fixed mid-size
// subject, plus constraint-graph primitives over random programs.

func benchSolve(b *testing.B, bench, analysis string) {
	b.Helper()
	prog := suite.MustLoad(bench)
	b.ResetTimer()
	var work int64
	for i := 0; i < b.N; i++ {
		res, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("unexpected timeout")
		}
		work = res.Work
	}
	b.ReportMetric(float64(work), "work")
}

func BenchmarkSolveInsens(b *testing.B) { benchSolve(b, "lusearch", "insens") }
func BenchmarkSolve2objH(b *testing.B)  { benchSolve(b, "lusearch", "2objH") }
func BenchmarkSolve2typeH(b *testing.B) { benchSolve(b, "lusearch", "2typeH") }
func BenchmarkSolve2callH(b *testing.B) { benchSolve(b, "lusearch", "2callH") }
func BenchmarkSolve2hybH(b *testing.B)  { benchSolve(b, "lusearch", "2hybH") }
func BenchmarkSolve3objH(b *testing.B)  { benchSolve(b, "lusearch", "3objH") }

// BenchmarkSolveCapped solves jython under 2objH at the figure budget
// (figures.DefaultBudget, 30M work units), where the context-qualified
// constraint graph explodes and the run is capped: the regime of the
// Figure 5-7 TIMEOUT rows, which the lusearch benchmarks above never
// reach. Besides work and nodes it reports retained-MiB, the live heap
// after a GC with the last Result still held.
func BenchmarkSolveCapped(b *testing.B) {
	prog := suite.MustLoad("jython")
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = nil
		var err error
		res, err = Analyze(context.Background(), prog, "2objH", Options{Budget: 30_000_000})
		if !errors.Is(err, ErrBudgetExceeded) {
			b.Fatalf("jython 2objH: err = %v, want the budget to run out", err)
		}
	}
	b.StopTimer()
	nodes, _ := res.ConstraintStats()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(res.Work), "work")
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MiB")
	runtime.KeepAlive(res)
}

// BenchmarkSolveRandom exercises the solver over a batch of random
// programs — the profile differs from the suite (denser dispatch,
// smaller methods).
func BenchmarkSolveRandom(b *testing.B) {
	progs := make([]int64, 8)
	for i := range progs {
		progs[i] = int64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := randprog.Generate(progs[i%len(progs)], randprog.Default())
		if _, err := Analyze(context.Background(), prog, "2objH", Options{Budget: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextTable measures hash-consing throughput.
func BenchmarkContextTable(b *testing.B) {
	tab := NewTable()
	for i := 0; i < b.N; i++ {
		c := tab.Cons(int32(i%1024), EmptyCtx, 2)
		c = tab.Cons(int32((i*7)%1024), c, 2)
		_ = tab.Prefix(c, 1)
	}
}

// --- interning kernels ---
//
// The solver re-interns node and heap-context keys on every constraint
// it touches, so these tables are lookup-dominated: the benchmarks
// model one insert followed by many hits, against the Go map they
// replaced.

const internKeys = 1 << 14

func internKey(i int) uint64 {
	// Sequential packed keys, like nodeKey/hcKey output.
	return uint64(i)<<32 | uint64(i*3)
}

func BenchmarkInternTable(b *testing.B) {
	var t internTable
	for i := 0; i < internKeys; i++ {
		t.put(internKey(i), int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, ok := t.get(internKey(i % internKeys)); !ok || v != int32(i%internKeys) {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkInternGoMap(b *testing.B) {
	m := make(map[uint64]int32)
	for i := 0; i < internKeys; i++ {
		m[internKey(i)] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, ok := m[internKey(i%internKeys)]; !ok || v != int32(i%internKeys) {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkPairSetInsert measures the call-graph-edge dedup set: mostly
// duplicate insertions once the graph saturates.
func BenchmarkPairSetInsert(b *testing.B) {
	var p pairSet
	for i := 0; i < internKeys; i++ {
		p.insert(internKey(i), internKey(i*7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % internKeys
		if p.insert(internKey(k), internKey(k*7)) {
			b.Fatal("expected duplicate")
		}
	}
}
