package core_test

import (
	"math"
	"sync"
	"testing"

	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/loader"
	"bytecard/internal/sample"
)

// groupNDVQueries are GROUP BY shapes RBX answers from the fact sample: a
// filtered 3-key conjunction, an OR filter (a union of DNF-term scans), a
// two-table join whose keys span both samples, and an unfiltered 2-key
// set, which the frame answers from its whole-sample profile memo.
var groupNDVQueries = []string{
	"SELECT f.dim_id, f.val, f.flag, COUNT(*) FROM fact f WHERE f.val >= 20 AND f.flag = 1 GROUP BY f.dim_id, f.val, f.flag",
	"SELECT f.val, f.flag, COUNT(*) FROM fact f WHERE f.val < 10 OR f.dim_id <= 3 GROUP BY f.val, f.flag",
	"SELECT f.val, d.cat, COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 2 GROUP BY f.val, d.cat",
	"SELECT f.flag, f.dim_id, COUNT(*) FROM fact f GROUP BY f.flag, f.dim_id",
}

// toyGroupPipeline is the Toy pipeline at 12000 fact rows, so even an
// 8000-row sample leaves RBX a population to extrapolate to.
func toyGroupPipeline(t *testing.T) (*core.Estimator, *engine.Engine, *datagen.Dataset) {
	t.Helper()
	_, est, exec, ds := pipelineFor(t, "toy", datagen.Toy(datagen.Config{Scale: 30, Seed: 41}))
	return est, exec, ds
}

// TestGroupNDVAllocs gates the RBX estimate path: with the frame warm, a
// filtered 3-key EstimateGroupNDV allocates as often over a 500-row sample
// as over an 8000-row one — filtering and profiling borrow pooled scratch,
// and no per-row or per-distinct-value allocation is left — and so does an
// unfiltered 2-key one, answered from the frame's profile memo.
func TestGroupNDVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are only meaningful without -race")
	}
	est, exec, ds := toyGroupPipeline(t)
	fact := ds.DB.Table("fact")
	for _, sql := range []string{groupNDVQueries[0], groupNDVQueries[3]} {
		q := analyzed(t, exec, sql)
		var counts []float64
		for _, rows := range []int{500, 8000} {
			est.Samples["fact"] = sample.SampleTable(fact, rows, 7)
			before := est.Fallbacks()
			est.EstimateGroupNDV(q)
			allocs := testing.AllocsPerRun(100, func() { est.EstimateGroupNDV(q) })
			if est.Fallbacks() != before {
				t.Fatalf("%s, %d-row sample: %d fallbacks, want RBX to answer", sql, rows, est.Fallbacks()-before)
			}
			t.Logf("%s, %d-row sample: %.0f allocs per estimate", sql, rows, allocs)
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: allocations grow with the sample: %.0f at 500 rows, %.0f at 8000", sql, counts[0], counts[1])
		}
	}
}

// TestGroupNDVConcurrent runs EstimateGroupNDV from eight goroutines over
// the shared frames (meant for -race): every answer is bit-identical to
// the sequential one, so no call sees another's pooled scratch. The
// frames are drawn afresh before the goroutines start, so they also race
// to fill each frame's whole-sample profile memo.
func TestGroupNDVConcurrent(t *testing.T) {
	est, exec, ds := toyGroupPipeline(t)
	var qs []*engine.Query
	var want []uint64
	for _, sql := range groupNDVQueries {
		q := analyzed(t, exec, sql)
		qs = append(qs, q)
		want = append(want, math.Float64bits(est.EstimateGroupNDV(q)))
	}
	if est.Fallbacks() != 0 {
		t.Fatalf("%d fallbacks, want RBX to answer every query", est.Fallbacks())
	}
	loader.LoadSamples(ds.DB, est, 4000, 7) // the rows pipelineFor drew
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (g + i) % len(qs)
				if got := math.Float64bits(est.EstimateGroupNDV(qs[k])); got != want[k] {
					t.Errorf("goroutine %d: query %d = %v, sequential %v", g, k, math.Float64frombits(got), math.Float64frombits(want[k]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
