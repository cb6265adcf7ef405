package bytecard

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/factorjoin"
	"bytecard/internal/sqlparse"
	"bytecard/internal/workload"
)

// TestPlanEstimatesFingerprint pins the optimizer's estimates: for every
// query of a STATS-Hybrid list, the FNV-1a hash over the bits of
// PlanWith(...).EstFinalRows, in list order, at data seeds 1 and 2 and in
// both FactorJoin modes. Inference refactors (compiled graphs, cached
// messages, sparse conditionals) must leave every estimate bit-identical;
// a query that fails to plan hashes its error text instead. Each case opens
// its own system, so the join-size memo never carries one mode's answers
// into the other.
func TestPlanEstimatesFingerprint(t *testing.T) {
	want := map[int64][2]uint64{
		1: {0x30b4b6b5ef9a234f, 0x4e7b828d761d7e76},
		2: {0xe1b185eb4b21abc2, 0x296d938185ec6d53},
	}
	for seed, hashes := range want {
		for mode, w := range hashes {
			ds, err := datagen.ByName("stats", datagen.Config{Scale: 0.02, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := OpenDataset(ds, Options{Dataset: "stats", Scale: 0.02, Seed: seed, StoreDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			sys.Estimator.JoinMode = factorjoin.Mode(mode)
			wl, err := workload.STATSHybrid(ds, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, q := range wl.Queries {
				stmt, err := sqlparse.Parse(q.SQL)
				if err != nil {
					t.Fatal(err)
				}
				aq, err := sys.Engine.Analyze(stmt)
				if err != nil {
					t.Fatal(err)
				}
				p, err := sys.Engine.PlanWith(aq, sys.Estimator)
				if err != nil {
					h.Write([]byte(err.Error()))
					continue
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.EstFinalRows))
				h.Write(buf[:])
			}
			if got := h.Sum64(); got != w {
				t.Errorf("data seed %d, mode %d: %d plans fingerprint %#x, want %#x", seed, mode, len(wl.Queries), got, w)
			}
		}
	}
}
