package engine

import (
	"fmt"
	"math"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// wordAggEngine builds a fact table f and a dimension d for the word-keyed
// aggregation tests. f.fv holds +0, −0, 1.5, 2 and two NaNs of different
// bit patterns; f.s and d.ds are strings over two dictionaries of their
// own; f.i is unique, so compression keeps every tuple and aggregation
// input is large enough to run parallel.
func wordAggEngine(t *testing.T) *Engine {
	t.Helper()
	floats := []float64{0, math.Copysign(0, -1), 1.5, 2,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)}
	f := storage.NewBuilder("f", []storage.ColumnSpec{
		{Name: "i", Kind: types.KindInt64},
		{Name: "fv", Kind: types.KindFloat64},
		{Name: "s", Kind: types.KindString},
		{Name: "k", Kind: types.KindInt64},
	})
	for i := 0; i < 4500; i++ {
		f.Append([]types.Datum{
			types.Int(int64(i)),
			types.Float(floats[i%len(floats)]),
			types.Str(fmt.Sprintf("a%02d", i*7%40)),
			types.Int(int64(i % 60)),
		})
	}
	d := storage.NewBuilder("d", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "ds", Kind: types.KindString},
		{Name: "df", Kind: types.KindFloat64},
	})
	for id := 0; id < 60; id++ {
		d.Append([]types.Datum{types.Int(int64(id)), types.Str(fmt.Sprintf("b%d", id%9)), types.Float(float64(id) / 4)})
	}
	db := storage.NewDatabase()
	db.Add(f.Build())
	db.Add(d.Build())
	return New(db, catalog.NewSchema(), HeuristicEstimator{})
}

// TestWordAggregatesMatchNaive is the word-keyed aggregation's parity test:
// GROUP BY and COUNT DISTINCT keyed by machine words must answer exactly as
// the oracle's Datum accumulators do, at one worker and at four.
func TestWordAggregatesMatchNaive(t *testing.T) {
	cases := []struct {
		name, sql string
		// presize false starts the group table at 16 slots, so a GROUP BY
		// of many groups must resize.
		presize bool
	}{
		// −0 and +0 are one value; each NaN bit pattern is one value of
		// its own.
		{"float distinct", "SELECT COUNT(DISTINCT f.fv), COUNT(DISTINCT f.i), SUM(f.i) FROM f", true},
		{"multi-column distinct across tables",
			"SELECT COUNT(DISTINCT f.fv, d.ds), COUNT(DISTINCT f.s, d.id), COUNT(*), SUM(f.i) FROM f, d WHERE f.k = d.id", true},
		{"string keys from two dictionaries",
			"SELECT f.s, d.ds, COUNT(*), COUNT(DISTINCT f.i), MIN(d.df), MAX(f.i) FROM f, d WHERE f.k = d.id GROUP BY f.s, d.ds", true},
		{"no groups", "SELECT f.s, COUNT(*) FROM f WHERE f.i < 0 GROUP BY f.s", true},
		{"no groups after a join",
			"SELECT d.ds, COUNT(*), SUM(f.i) FROM f, d WHERE f.k = d.id AND d.id > 1000 GROUP BY d.ds", true},
		{"past a resize", "SELECT f.i, f.s, COUNT(*), COUNT(DISTINCT f.fv) FROM f GROUP BY f.i, f.s", false},
	}
	e := wordAggEngine(t)
	e.AggCapacity = 1
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e.DisableNDVPresize = !c.presize
			oracle, err := e.RunNaive(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			var first *Result
			for _, workers := range []int{1, 4} {
				e.Parallelism = workers
				res, err := e.Run(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, res, oracle)
				if first == nil {
					first = res
				} else if !sameResult(first, res) {
					t.Errorf("%d workers: result differs from one worker's", workers)
				}
				if !c.presize && res.Metrics.HashResizes == 0 {
					t.Errorf("%d workers: no resize growing %d groups from 16 slots", workers, len(res.Rows))
				}
			}
		})
	}
	e.Parallelism = 1
	res, err := e.Run("SELECT COUNT(DISTINCT f.fv) FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.ScalarInt(); n != 5 {
		t.Errorf("COUNT(DISTINCT f.fv) = %d, want 5 (0 = −0, 1.5, 2, two NaN bit patterns)", n)
	}
}
