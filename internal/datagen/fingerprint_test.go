package datagen

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"bytecard/internal/types"
)

// fingerprint is an FNV-1a hash over every cell of every table of ds, in
// table and row order: kind, then the value's bits (strings with their
// length).
func fingerprint(ds *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, name := range ds.DB.TableNames() {
		t := ds.DB.Table(name)
		h.Write([]byte(name))
		for i := 0; i < t.NumRows(); i++ {
			for j := 0; j < t.NumCols(); j++ {
				d := t.Col(j).Value(i)
				word(h, uint64(d.K))
				switch d.K {
				case types.KindInt64:
					word(h, uint64(d.I))
				case types.KindFloat64:
					word(h, math.Float64bits(d.F))
				default:
					word(h, uint64(len(d.S)))
					h.Write([]byte(d.S))
				}
			}
		}
	}
	return h.Sum64()
}

// TestDatasetsByteIdentical pins the generated fixtures: generator
// refactors (sampler memoization, helper reshuffles) must leave every row
// of the benchmark datasets byte-identical at seed 1. The hashes were
// recorded before zipf memoized its samplers.
func TestDatasetsByteIdentical(t *testing.T) {
	want := map[string]struct {
		scale float64
		hash  uint64
	}{
		"imdb":       {0.1, 0x1dfad4f00853b6af},
		"stats":      {0.05, 0x3e03e66efdf470a9},
		"aeolus":     {0.2, 0x9f76e53d0d4006a1},
		"timeseries": {1.0, 0xeb97f51cc0233376},
	}
	for name, w := range want {
		ds, err := ByName(name, Config{Scale: w.scale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(ds); got != w.hash {
			t.Errorf("%s at scale %g, seed 1: fingerprint %#x, want %#x", name, w.scale, got, w.hash)
		}
	}
}
