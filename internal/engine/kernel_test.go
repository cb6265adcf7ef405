package engine

import (
	"math"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// kernelEngine builds a 3000-row table t of two blocks. t.i holds 2^53,
// 2^53+2 and 2^53+1, 1000 rows each in that order, so the second block
// holds 2^53+1 only: float64 rounds it to 2^53, and a float64 image
// filters and prunes it as 2^53. t.f holds 1000 rows of 1, 200 of 5, 800
// of 7 and 1000 NaNs, the second block nearly all NaN. t.k is row mod 3,
// and d, two rows keyed 0 and 1, joins it small enough for the SIP-first
// scan.
func kernelEngine(t *testing.T) *Engine {
	t.Helper()
	b := storage.NewBuilder("t", []storage.ColumnSpec{
		{Name: "i", Kind: types.KindInt64},
		{Name: "f", Kind: types.KindFloat64},
		{Name: "k", Kind: types.KindInt64},
	})
	const p53 = int64(1) << 53
	ints := []int64{p53, p53 + 2, p53 + 1}
	for row := 0; row < 3000; row++ {
		f := math.NaN()
		switch {
		case row < 1000:
			f = 1
		case row < 1200:
			f = 5
		case row < 2000:
			f = 7
		}
		b.Append([]types.Datum{types.Int(ints[row/1000]), types.Float(f), types.Int(int64(row % 3))})
	}
	d := storage.NewBuilder("d", []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}})
	d.Append([]types.Datum{types.Int(0)})
	d.Append([]types.Datum{types.Int(1)})
	db := storage.NewDatabase()
	db.Add(b.Build())
	db.Add(d.Build())
	return New(db, catalog.NewSchema(), HeuristicEstimator{})
}

// sameCells compares results cell for cell under Datum.Compare's total
// order, in which NaN equals NaN.
func sameCells(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, the oracle %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if g, w := got.Rows[i][j], want.Rows[i][j]; g.K != w.K || g.Compare(w) != 0 {
				t.Errorf("%s: row %d col %d is %v, the oracle's %v", label, i, j, g, w)
			}
		}
	}
}

// runAgainstOracle runs every query at 1 and 4 workers through the
// pushed-down, multi-stage and single-stage readers, checks each answer
// against RunNaive, and returns the oracle's results.
func runAgainstOracle(t *testing.T, e *Engine, queries []string) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	for _, sql := range queries {
		oracle, err := e.RunNaive(sql)
		if err != nil {
			t.Fatal(err)
		}
		out[sql] = oracle
		for _, workers := range []int{1, 4} {
			for _, reader := range []string{"", "multi-stage", "single-stage"} {
				e.Parallelism, e.ForceReader = workers, reader
				res, err := e.Run(sql)
				if err != nil {
					t.Fatal(err)
				}
				sameCells(t, sql+" ["+reader+"]", res, oracle)
			}
		}
	}
	e.Parallelism, e.ForceReader = 0, ""
	return out
}

// TestBigIntFiltersExact: INT64 predicates past 2^53 answer as the oracle
// does — an int literal bounds the kernel as an int64, and int64 zone maps
// keep the block of 2^53+1 that a float64 image prunes.
func TestBigIntFiltersExact(t *testing.T) {
	e := kernelEngine(t)
	want := map[string]int64{
		"SELECT COUNT(*) FROM t WHERE t.i = 9007199254740993":  1000,
		"SELECT COUNT(*) FROM t WHERE t.i > 9007199254740992":  2000,
		"SELECT COUNT(*) FROM t WHERE t.i <> 9007199254740993": 2000,
		// The SIP-first scan filters its candidates with the same kernel.
		"SELECT COUNT(*) FROM d, t WHERE d.k = t.k AND t.i > 9007199254740992": 1333,
	}
	var queries []string
	for sql := range want {
		queries = append(queries, sql)
	}
	for sql, oracle := range runAgainstOracle(t, e, queries) {
		if n, _ := oracle.ScalarInt(); n != want[sql] {
			t.Errorf("%s: the oracle answers %d, want %d", sql, n, want[sql])
		}
	}
}

// TestNaNFilters: NaN equals NaN and sorts above every number, in filters,
// in MIN/MAX and in the order of grouped results.
func TestNaNFilters(t *testing.T) {
	e := kernelEngine(t)
	want := map[string]int64{
		"SELECT COUNT(*) FROM t WHERE t.f < 5":  1000,
		"SELECT COUNT(*) FROM t WHERE t.f <= 5": 1200,
		"SELECT COUNT(*) FROM t WHERE t.f = 5":  200,
		"SELECT COUNT(*) FROM t WHERE t.f <> 5": 2800,
		"SELECT COUNT(*) FROM t WHERE t.f > 5":  1800,
		"SELECT COUNT(*) FROM t WHERE t.f >= 5": 2000,
	}
	queries := []string{
		"SELECT MIN(t.f), MAX(t.f) FROM t",
		"SELECT MIN(t.f), MAX(t.f) FROM t WHERE t.f < 7",
		"SELECT t.f, COUNT(*) FROM t GROUP BY t.f",
	}
	for sql := range want {
		queries = append(queries, sql)
	}
	res := runAgainstOracle(t, e, queries)
	for sql, n := range want {
		if got, _ := res[sql].ScalarInt(); got != n {
			t.Errorf("%s: the oracle answers %d, want %d", sql, got, n)
		}
	}
	if row := res["SELECT MIN(t.f), MAX(t.f) FROM t"].Rows[0]; row[0].F != 1 || !math.IsNaN(row[1].F) {
		t.Errorf("MIN, MAX = %v, want 1, NaN", row)
	}
	if row := res["SELECT MIN(t.f), MAX(t.f) FROM t WHERE t.f < 7"].Rows[0]; row[0].F != 1 || row[1].F != 5 {
		t.Errorf("MIN, MAX below 7 = %v, want 1, 5", row)
	}
	groups := res["SELECT t.f, COUNT(*) FROM t GROUP BY t.f"].Rows
	if len(groups) != 4 || groups[2][0].F != 7 || !math.IsNaN(groups[3][0].F) || groups[3][1].I != 1000 {
		t.Errorf("groups = %v, want 1, 5, 7, then NaN with 1000 rows", groups)
	}
}

// TestExplainPredictsCharges: EXPLAIN's block prediction runs the kernels'
// own zone test, so it equals the blocks a pushed-down single-column scan
// charges and bounds a multi-column scan's.
func TestExplainPredictsCharges(t *testing.T) {
	cases := []struct {
		e     *Engine
		sql   string
		exact bool
	}{
		{windowEngine(t, 40), "SELECT COUNT(*) FROM w WHERE " + blockWindow(5, 9), true},
		{windowEngine(t, 40), "SELECT COUNT(*) FROM w WHERE w.ts >= 10 AND w.ts <= 5", true},
		{windowEngine(t, 40), "SELECT COUNT(*) FROM w WHERE " + blockWindow(5, 9) + " AND w.v = 3", false},
		{windowEngine(t, 40), "SELECT COUNT(*) FROM w WHERE " + blockWindow(5, 9) + " AND w.v > 7", false},
		{kernelEngine(t), "SELECT COUNT(*) FROM t WHERE t.i > 9007199254740992", true},
		{kernelEngine(t), "SELECT COUNT(*) FROM t WHERE t.i < 9007199254740993", true},
		{kernelEngine(t), "SELECT COUNT(*) FROM t WHERE t.f > 7", true},
		{kernelEngine(t), "SELECT COUNT(*) FROM t WHERE t.i = 9007199254740993 AND t.f >= 7", false},
		{windowEngine(t, 40), "SELECT COUNT(*) FROM w WHERE (" + blockWindow(5, 9) + ") OR (" + blockWindow(30, 31) + " AND w.v = 3)", false},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			c.e.Parallelism = workers
			ex, err := c.e.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.e.Run(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			var predicted, charged int
			for _, n := range ex.Nodes {
				if n.Kind == "scan" {
					if !n.Pushdown {
						t.Fatalf("%s: scan not pushed down", c.sql)
					}
					predicted += n.PredictedBlocks
				}
			}
			for _, sb := range res.Metrics.ScanBlocks {
				charged += sb.Read
			}
			if c.exact && predicted != charged || predicted < charged {
				t.Errorf("%s, %d workers: EXPLAIN predicts %d blocks, the scan charges %d", c.sql, workers, predicted, charged)
			}
		}
	}
}
