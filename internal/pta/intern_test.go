package pta

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// The intern tables replace Go maps on the solver's hottest paths, so
// their contract is checked against the map they replaced: a random
// operation sequence must leave internTable indistinguishable from
// map[uint64]int32, and pairSet from a pair-keyed set.

// internOps drives an internTable and a reference map through the same
// get/put sequence, failing on the first divergence. Keys are drawn
// from a small universe so duplicates and probe collisions are common.
func internOps(t *testing.T, keys []uint64) {
	t.Helper()
	var tab internTable
	ref := make(map[uint64]int32)
	for i, k := range keys {
		got, ok := tab.get(k)
		want, wok := ref[k]
		if ok != wok || (ok && got != want) {
			t.Fatalf("op %d: get(%#x) = %d,%v; want %d,%v", i, k, got, ok, want, wok)
		}
		if !ok {
			id := int32(len(ref))
			tab.put(k, id)
			ref[k] = id
		}
		if tab.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", i, tab.len(), len(ref))
		}
	}
	for k, want := range ref {
		if got, ok := tab.get(k); !ok || got != want {
			t.Fatalf("final: get(%#x) = %d,%v; want %d,true", k, got, ok, want)
		}
	}
}

func TestInternTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		n := 1 + r.Intn(2000)
		keys := make([]uint64, n)
		for i := range keys {
			switch r.Intn(3) {
			case 0: // small universe: many duplicates
				keys[i] = uint64(r.Intn(64))
			case 1: // packed-key shape, like nodeKey/hcKey
				keys[i] = uint64(r.Intn(512))<<32 | uint64(r.Intn(512))
			default: // adversarial: keys colliding after masking
				keys[i] = uint64(r.Intn(16)) << 40
			}
		}
		internOps(t, keys)
	}
}

func TestPairSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for round := 0; round < 50; round++ {
		var p pairSet
		ref := make(map[[2]uint64]bool)
		n := 1 + r.Intn(2000)
		for i := 0; i < n; i++ {
			k := [2]uint64{uint64(r.Intn(128)), uint64(r.Intn(128)) << 33}
			if p.insert(k[0], k[1]) == ref[k] {
				t.Fatalf("op %d: insert(%v) = %v, want %v (membership)", i, k, ref[k], !ref[k])
			}
			ref[k] = true
			if p.len() != len(ref) {
				t.Fatalf("op %d: len = %d, want %d", i, p.len(), len(ref))
			}
		}
	}
}

// FuzzInternTable feeds arbitrary byte strings as key sequences; the
// fuzzer hunts for probe-chain states where get and put disagree with
// the reference map.
func FuzzInternTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1})
	f.Add([]byte("collide-collide-collide-collide-"))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]uint64, 0, len(data)/2+1)
		for len(data) >= 8 {
			keys = append(keys, binary.LittleEndian.Uint64(data))
			data = data[2:] // overlapping windows: correlated keys
		}
		internOps(t, keys)
	})
}
