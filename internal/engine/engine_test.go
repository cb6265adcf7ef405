package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/expr"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

func toyEngine(t *testing.T) *Engine {
	t.Helper()
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 11})
	return New(ds.DB, ds.Schema, HeuristicEstimator{})
}

func TestCountStarNoFilter(t *testing.T) {
	e := toyEngine(t)
	res, err := e.Run("SELECT COUNT(*) FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	n, err := res.ScalarInt()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(e.DB.Table("fact").NumRows()) {
		t.Errorf("COUNT(*) = %d, want %d", n, e.DB.Table("fact").NumRows())
	}
}

func TestCountWithFilterMatchesBruteForce(t *testing.T) {
	e := toyEngine(t)
	res, err := e.Run("SELECT COUNT(*) FROM fact WHERE fact.val >= 50")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.ScalarInt()
	tab := e.DB.Table("fact")
	col := tab.ColByName("val")
	var want int64
	for i := 0; i < tab.NumRows(); i++ {
		if col.Value(i).I >= 50 {
			want++
		}
	}
	if n != want {
		t.Errorf("filtered count = %d, want %d", n, want)
	}
}

func TestJoinCountMatchesNaive(t *testing.T) {
	e := toyEngine(t)
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat = 3"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fast.ScalarInt()
	b, _ := slow.ScalarInt()
	if a != b {
		t.Errorf("optimized %d != naive %d", a, b)
	}
	if a == 0 {
		t.Error("expected non-empty join")
	}
}

func TestGroupByMatchesNaive(t *testing.T) {
	e := toyEngine(t)
	sql := "SELECT d.cat, COUNT(*), SUM(f.val), MIN(f.val), MAX(f.val), AVG(f.val) FROM fact f, dim d WHERE f.dim_id = d.id GROUP BY d.cat"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, fast, slow)
}

// TestGroupByHashCollisionsMatchNaive groups by keys whose hashes once
// collided (1e300 and 2e300 both saturated int64) or still do (2^53 and
// 2^53+1 share a float image): the executor and the oracle must both keep
// every distinct key its own group.
func TestGroupByHashCollisionsMatchNaive(t *testing.T) {
	b := storage.NewBuilder("h", []storage.ColumnSpec{{Name: "f", Kind: types.KindFloat64}, {Name: "i", Kind: types.KindInt64}})
	for k, f := range []float64{1e300, 2e300, 1e300, 2e300, 2e300} {
		b.Append([]types.Datum{types.Float(f), types.Int(1<<53 + int64(k%2))})
	}
	db := storage.NewDatabase()
	db.Add(b.Build())
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	for _, sql := range []string{"SELECT f, COUNT(*) FROM h GROUP BY f", "SELECT i, COUNT(*) FROM h GROUP BY i"} {
		fast, err := e.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := e.RunNaive(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast.Rows) != 2 || len(slow.Rows) != 2 {
			t.Fatalf("%s: %d groups executed, %d from the oracle; want 2", sql, len(fast.Rows), len(slow.Rows))
		}
		assertResultsEqual(t, fast, slow)
	}
}

func TestCountDistinctMatchesNaive(t *testing.T) {
	e := toyEngine(t)
	sql := "SELECT COUNT(DISTINCT f.dim_id, f.flag) FROM fact f WHERE f.val > 20"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, fast, slow)
}

func TestOrFilterMatchesNaive(t *testing.T) {
	e := toyEngine(t)
	sql := "SELECT COUNT(*) FROM fact WHERE val < 10 OR (val > 90 AND flag = 1)"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, fast, slow)
}

func assertResultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("row %d width differs", i)
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.K == types.KindFloat64 || bv.K == types.KindFloat64 {
				if d := av.AsFloat() - bv.AsFloat(); d > 1e-6 || d < -1e-6 {
					t.Errorf("row %d col %d: %v vs %v", i, j, av, bv)
				}
			} else if !av.Equal(bv) {
				t.Errorf("row %d col %d: %v vs %v", i, j, av, bv)
			}
		}
	}
}

// TestRandomQueriesMatchNaive is the central executor-correctness test:
// random SPJ+aggregation queries over the toy dataset must agree exactly
// with the nested-loop oracle.
func TestRandomQueriesMatchNaive(t *testing.T) {
	e := toyEngine(t)
	rng := rand.New(rand.NewSource(99))
	ops := []string{"=", "<", "<=", ">", ">=", "<>"}
	for trial := 0; trial < 50; trial++ {
		var sql string
		switch trial % 5 {
		case 0: // single table, conjunctive
			sql = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE val %s %d AND flag = %d",
				ops[rng.Intn(len(ops))], rng.Intn(100), rng.Intn(2))
		case 1: // single table, disjunctive
			sql = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE val %s %d OR dim_id %s %d",
				ops[rng.Intn(len(ops))], rng.Intn(100), ops[rng.Intn(len(ops))], 1+rng.Intn(50))
		case 2: // join with filters
			sql = fmt.Sprintf("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat %s %d AND f.val %s %d",
				ops[rng.Intn(len(ops))], 1+rng.Intn(5), ops[rng.Intn(len(ops))], rng.Intn(100))
		case 3: // grouped join
			sql = fmt.Sprintf("SELECT d.cat, COUNT(*), COUNT(DISTINCT f.flag) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < %d GROUP BY d.cat",
				10+rng.Intn(90))
		case 4: // grouped join aggregating columns of both sides
			sql = fmt.Sprintf("SELECT d.cat, SUM(f.val), MIN(f.val), MAX(d.id), COUNT(DISTINCT f.dim_id) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val %s %d GROUP BY d.cat",
				ops[rng.Intn(len(ops))], rng.Intn(100))
		}
		fast, err := e.Run(sql)
		if err != nil {
			t.Fatalf("query %q: %v", sql, err)
		}
		slow, err := e.RunNaive(sql)
		if err != nil {
			t.Fatalf("naive %q: %v", sql, err)
		}
		if len(fast.Rows) != len(slow.Rows) {
			t.Fatalf("query %q: %d vs %d rows", sql, len(fast.Rows), len(slow.Rows))
		}
		assertResultsEqual(t, fast, slow)
	}
}

func TestThreeWayJoinMatchesNaive(t *testing.T) {
	// Build a small 3-table chain a–b–c by hand.
	db := storage.NewDatabase()
	mk := func(name string, cols []string, rows [][]int64) {
		specs := make([]storage.ColumnSpec, len(cols))
		for i, c := range cols {
			specs[i] = storage.ColumnSpec{Name: c, Kind: types.KindInt64}
		}
		b := storage.NewBuilder(name, specs)
		for _, r := range rows {
			d := make([]types.Datum, len(r))
			for i, v := range r {
				d[i] = types.Int(v)
			}
			b.Append(d)
		}
		db.Add(b.Build())
	}
	rng := rand.New(rand.NewSource(5))
	var aRows, bRows, cRows [][]int64
	for i := 1; i <= 30; i++ {
		aRows = append(aRows, []int64{int64(i), int64(rng.Intn(5))})
	}
	for i := 1; i <= 100; i++ {
		bRows = append(bRows, []int64{int64(i), int64(1 + rng.Intn(30)), int64(rng.Intn(10))})
	}
	for i := 1; i <= 80; i++ {
		cRows = append(cRows, []int64{int64(i), int64(1 + rng.Intn(100)), int64(rng.Intn(3))})
	}
	mk("a", []string{"id", "x"}, aRows)
	mk("b", []string{"id", "a_id", "y"}, bRows)
	mk("c", []string{"id", "b_id", "z"}, cRows)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	sql := "SELECT COUNT(*) FROM a, b, c WHERE b.a_id = a.id AND c.b_id = b.id AND a.x < 3 AND c.z = 1"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, fast, slow)
}

func TestAnalyzeErrors(t *testing.T) {
	e := toyEngine(t)
	bad := []string{
		"SELECT COUNT(*) FROM ghost",
		"SELECT COUNT(*) FROM fact, fact",                                       // duplicate binding
		"SELECT COUNT(*) FROM fact WHERE nope = 1",                              // unknown column
		"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND id = 1",   // ambiguous
		"SELECT COUNT(*) FROM fact f, dim d",                                    // cross product
		"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id < d.id",              // non-equi join
		"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id OR f.val = 1", // join under OR
		"SELECT val, COUNT(*) FROM fact",                                        // non-grouped column beside aggregate
		"SELECT * FROM fact",                                                    // star
		"SELECT val FROM fact WHERE val = 'x'",                                  // type mismatch
		"SELECT SUM(val) FROM fact WHERE val = 1 AND val2 = 2",                  // unknown col in filter
	}
	for _, sql := range bad {
		if _, err := e.Run(sql); err == nil {
			t.Errorf("query %q succeeded, want error", sql)
		}
	}
}

func TestSelfJoinAliases(t *testing.T) {
	e := toyEngine(t)
	sql := "SELECT COUNT(*) FROM fact f1, fact f2 WHERE f1.dim_id = f2.dim_id AND f1.val < 5 AND f2.val > 95"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, fast, slow)
}

func TestJoinPatternCollection(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 11})
	schema := catalog.NewSchema()
	for _, name := range ds.DB.TableNames() {
		schema.AddTable(ds.Schema.Table(name))
	}
	e := New(ds.DB, schema, HeuristicEstimator{})
	if _, err := e.Run("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id"); err != nil {
		t.Fatal(err)
	}
	pats := schema.JoinPatterns()
	if len(pats) != 1 {
		t.Fatalf("patterns = %v", pats)
	}
	want := joinPattern("fact", "dim_id", "dim", "id")
	if pats[0] != want && pats[0] != (catalog.JoinPattern{Left: want.Right, Right: want.Left}) {
		t.Errorf("pattern = %v", pats[0])
	}
}

func TestReaderStrategySelection(t *testing.T) {
	e := toyEngine(t)
	// Highly selective two-column conjunction → multi-stage.
	res, err := e.Run("SELECT COUNT(*) FROM fact WHERE val = 3 AND flag = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ReaderStrategy["fact"] != "multi-stage" {
		t.Errorf("selective conj strategy = %s, want multi-stage", res.Metrics.ReaderStrategy["fact"])
	}
	// No filter → single-stage.
	res, err = e.Run("SELECT COUNT(*) FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ReaderStrategy["fact"] != "single-stage" {
		t.Errorf("no-filter strategy = %s, want single-stage", res.Metrics.ReaderStrategy["fact"])
	}
	// OR filter → single-stage.
	res, err = e.Run("SELECT COUNT(*) FROM fact WHERE val = 3 OR flag = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ReaderStrategy["fact"] != "single-stage" {
		t.Errorf("OR strategy = %s, want single-stage", res.Metrics.ReaderStrategy["fact"])
	}
}

func TestForceReaderOverride(t *testing.T) {
	e := toyEngine(t)
	e.ForceReader = "single-stage"
	res, err := e.Run("SELECT COUNT(*) FROM fact WHERE val = 3 AND flag = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ReaderStrategy["fact"] != "single-stage" {
		t.Error("ForceReader must pin the strategy")
	}
}

func TestMultiStageReadsFewerBlocks(t *testing.T) {
	// A big table where a selective first column should spare the second
	// column's blocks.
	b := storage.NewBuilder("big", []storage.ColumnSpec{
		{Name: "a", Kind: types.KindInt64},
		{Name: "b", Kind: types.KindInt64},
	})
	n := storage.BlockSize * 8
	for i := 0; i < n; i++ {
		a := int64(0)
		if i < 100 { // all matches live in the first block
			a = 1
		}
		b.Append([]types.Datum{types.Int(a), types.Int(int64(i % 97))})
	}
	db := storage.NewDatabase()
	db.Add(b.Build())
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})

	sql := "SELECT COUNT(*) FROM big WHERE a = 1 AND b < 50"
	e.ForceReader = "multi-stage"
	multi, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.ForceReader = "single-stage"
	single, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, multi, single)
	if multi.Metrics.IO.BlocksRead() >= single.Metrics.IO.BlocksRead() {
		t.Errorf("multi-stage blocks %d !< single-stage blocks %d",
			multi.Metrics.IO.BlocksRead(), single.Metrics.IO.BlocksRead())
	}
}

func TestAggPresizeAvoidsResizes(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 4, Seed: 7})
	// goodEst returns the exact group NDV; contrast with cold start.
	e := New(ds.DB, ds.Schema, exactNDVEstimator{inner: HeuristicEstimator{}, ndv: 5})
	sql := "SELECT cat, COUNT(*) FROM dim GROUP BY cat"
	warm, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.DisableNDVPresize = true
	e.AggCapacity = 1
	cold, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, warm, cold)
	if warm.Metrics.HashResizes > 0 {
		t.Errorf("presized run resized %d times", warm.Metrics.HashResizes)
	}
	if cold.Metrics.HashResizes == 0 {
		t.Skip("cold run needed no resizes at this scale")
	}
}

// exactNDVEstimator overrides only group-NDV estimation.
type exactNDVEstimator struct {
	inner CardEstimator
	ndv   float64
}

func (x exactNDVEstimator) Name() string                         { return "exact-ndv" }
func (x exactNDVEstimator) EstimateFilter(t *QueryTable) float64 { return x.inner.EstimateFilter(t) }
func (x exactNDVEstimator) EstimateConj(t *QueryTable, p []expr.Pred) float64 {
	return x.inner.EstimateConj(t, p)
}
func (x exactNDVEstimator) EstimateJoin(ts []*QueryTable, js []JoinCond) float64 {
	return x.inner.EstimateJoin(ts, js)
}
func (x exactNDVEstimator) EstimateGroupNDV(*Query) float64 { return x.ndv }
