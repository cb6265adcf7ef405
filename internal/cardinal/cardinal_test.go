package cardinal

import (
	"math"
	"testing"
	"testing/quick"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

func TestQError(t *testing.T) {
	if QError(100, 100) != 1 {
		t.Error("exact estimate must have Q-error 1")
	}
	if QError(10, 1000) != 100 || QError(1000, 10) != 100 {
		t.Error("Q-error must be symmetric")
	}
	if QError(0, 0) != 1 {
		t.Error("both-below-one must floor to 1")
	}
	if QError(0.5, 100) != 100 {
		t.Errorf("QError(0.5,100) = %g, want 100 (estimate floored at 1)", QError(0.5, 100))
	}
}

func TestQuickQErrorProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		e, tr := float64(a%100000)+1, float64(b%100000)+1
		q := QError(e, tr)
		return q >= 1 && q == QError(tr, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if Quantile(vals, 0) != 1 || Quantile(vals, 1) != 5 {
		t.Error("extreme quantiles broken")
	}
	if Quantile(vals, 0.5) != 3 {
		t.Errorf("median = %g", Quantile(vals, 0.5))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile must be NaN")
	}
}

// TestQuantileBoundaries pins the documented contract: linear
// interpolation between order statistics (the R/NumPy "linear" method,
// not nearest-rank), exact-rank hits returning the element itself, and
// the empty/single/extreme edge cases.
func TestQuantileBoundaries(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0)) || !math.IsNaN(Quantile([]float64{}, 1)) {
		t.Error("empty input must be NaN at every q")
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := Quantile([]float64{7}, q); v != 7 {
			t.Errorf("single element at q=%g: %g, want 7", q, v)
		}
	}
	vals := []float64{40, 10, 30, 20} // unsorted on purpose
	if Quantile(vals, -0.5) != 10 || Quantile(vals, 0) != 10 {
		t.Error("q <= 0 must return the minimum")
	}
	if Quantile(vals, 1) != 40 || Quantile(vals, 1.5) != 40 {
		t.Error("q >= 1 must return the maximum")
	}
	// Exact rank hits: positions 0, 1, 2, 3 at q = i/(n-1).
	for i, want := range []float64{10, 20, 30, 40} {
		q := float64(i) / 3
		if v := Quantile(vals, q); v != want {
			t.Errorf("exact rank q=%g: %g, want %g", q, v, want)
		}
	}
	// Between ranks: linear interpolation, not a nearest-rank snap.
	if v := Quantile(vals, 0.5); v != 25 {
		t.Errorf("q=0.5 over 4 values: %g, want interpolated 25", v)
	}
	if v := Quantile(vals, 0.25+0.375); v < 28.74 || v > 28.76 {
		t.Errorf("q=0.625: %g, want 28.75", v)
	}
	// The input slice must not be reordered.
	if vals[0] != 40 || vals[3] != 20 {
		t.Errorf("Quantile mutated its input: %v", vals)
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	s := Summarize(vals)
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.P50-50.5) > 1 || math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("P50=%g Mean=%g", s.P50, s.Mean)
	}
	if s.P90 < s.P75 || s.P99 < s.P90 {
		t.Error("quantiles must be monotone")
	}
	if Summarize(nil).Count != 0 {
		t.Error("empty summary")
	}
}

func TestCardenas(t *testing.T) {
	if Cardenas(100, 1000, 1000) != 100 {
		t.Error("selecting everything keeps all distinct values")
	}
	if Cardenas(100, 1000, 0) != 0 {
		t.Error("selecting nothing keeps none")
	}
	got := Cardenas(10, 1000, 500)
	if got < 9 || got > 10 {
		t.Errorf("frequent values survive: got %g", got)
	}
	got = Cardenas(1000, 1000, 10)
	if got > 10 {
		t.Errorf("cannot exceed selected rows: got %g", got)
	}
}

func toyHarness(t *testing.T, est engine.CardEstimator) (*engine.Engine, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Toy(datagen.Config{Scale: 2, Seed: 21})
	return engine.New(ds.DB, ds.Schema, est), ds
}

// analyzeTable returns the analyzed single-table query for estimator tests.
func analyzeQuery(t *testing.T, e *engine.Engine, sql string) *engine.Query {
	t.Helper()
	q, err := e.Analyze(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSketchSingleColumnAccuracy(t *testing.T) {
	var est *SketchEstimator
	e, ds := toyHarness(t, nil)
	est = NewSketchEstimator(ds.DB, 64)
	e.Est = est
	q := analyzeQuery(t, e, "SELECT COUNT(*) FROM fact WHERE val < 50")
	got := est.EstimateFilter(q.Tables[0])
	truth, err := e.TrueCardinality("SELECT COUNT(*) FROM fact WHERE val < 50")
	if err != nil {
		t.Fatal(err)
	}
	if QError(got, truth) > 1.25 {
		t.Errorf("single-column estimate %g vs truth %g", got, truth)
	}
}

func TestSketchAVIMissesCorrelation(t *testing.T) {
	// flag is fully determined by val (flag=1 ⇔ val>=50): the conjunction
	// val>=50 AND flag=0 is empty, but AVI predicts ~25% of rows. The
	// traditional estimator must overestimate badly — this is Table 1's
	// mechanism, so assert the weakness is reproduced.
	e, ds := toyHarness(t, nil)
	est := NewSketchEstimator(ds.DB, 64)
	e.Est = est
	q := analyzeQuery(t, e, "SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 0")
	got := est.EstimateFilter(q.Tables[0])
	n := float64(ds.DB.Table("fact").NumRows())
	if got < n*0.1 {
		t.Errorf("AVI estimate %g should be far above the true 0 (n=%g)", got, n)
	}
}

func TestSketchJoinEstimate(t *testing.T) {
	e, ds := toyHarness(t, nil)
	est := NewSketchEstimator(ds.DB, 64)
	e.Est = est
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id"
	q := analyzeQuery(t, e, sql)
	got := est.EstimateJoin(q.Tables, q.Joins)
	truth, err := e.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	if QError(got, truth) > 3 {
		t.Errorf("PK-FK join estimate %g vs truth %g (q=%g)", got, truth, QError(got, truth))
	}
}

func TestSketchGroupNDV(t *testing.T) {
	e, ds := toyHarness(t, nil)
	est := NewSketchEstimator(ds.DB, 64)
	e.Est = est
	q := analyzeQuery(t, e, "SELECT cat, COUNT(*) FROM dim GROUP BY cat")
	got := est.EstimateGroupNDV(q)
	if got < 3 || got > 10 {
		t.Errorf("group NDV = %g, want ~5", got)
	}
}

func TestSketchORInclusionExclusion(t *testing.T) {
	e, ds := toyHarness(t, nil)
	est := NewSketchEstimator(ds.DB, 64)
	e.Est = est
	sql := "SELECT COUNT(*) FROM fact WHERE val < 20 OR val >= 80"
	q := analyzeQuery(t, e, sql)
	got := est.EstimateFilter(q.Tables[0])
	truth, err := e.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	if QError(got, truth) > 1.3 {
		t.Errorf("OR estimate %g vs truth %g", got, truth)
	}
}

func TestSampleFilterAccuracy(t *testing.T) {
	e, ds := toyHarness(t, nil)
	est := NewSampleEstimator(ds.DB, 500, 3)
	e.Est = est
	sql := "SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 1"
	q := analyzeQuery(t, e, sql)
	got := est.EstimateFilter(q.Tables[0])
	truth, err := e.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Sample sees the correlation directly, unlike AVI.
	if QError(got, truth) > 1.5 {
		t.Errorf("sample estimate %g vs truth %g", got, truth)
	}
}

func TestSampleJoinEstimate(t *testing.T) {
	e, ds := toyHarness(t, nil)
	est := NewSampleEstimator(ds.DB, 800, 3)
	e.Est = est
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3"
	q := analyzeQuery(t, e, sql)
	got := est.EstimateJoin(q.Tables, q.Joins)
	truth, err := e.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	if QError(got, truth) > 5 {
		t.Errorf("sample join estimate %g vs truth %g", got, truth)
	}
}

func TestSampleGroupNDV(t *testing.T) {
	e, ds := toyHarness(t, nil)
	est := NewSampleEstimator(ds.DB, 500, 3)
	e.Est = est
	q := analyzeQuery(t, e, "SELECT cat, COUNT(*) FROM dim GROUP BY cat")
	got := est.EstimateGroupNDV(q)
	if got < 2 || got > 20 {
		t.Errorf("sample group NDV = %g, want ~5", got)
	}
}

func TestEstimatorsDriveEngine(t *testing.T) {
	// Both estimators must plug into the engine and produce correct
	// results (plans differ; answers must not).
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 9})
	sqls := []string{
		"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < 30",
		"SELECT d.cat, COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id GROUP BY d.cat",
	}
	ref := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	for _, mk := range []func() engine.CardEstimator{
		func() engine.CardEstimator { return NewSketchEstimator(ds.DB, 32) },
		func() engine.CardEstimator { return NewSampleEstimator(ds.DB, 300, 5) },
	} {
		e := engine.New(ds.DB, ds.Schema, mk())
		for _, sql := range sqls {
			a, err := e.Run(sql)
			if err != nil {
				t.Fatalf("%s with %s: %v", sql, e.Est.Name(), err)
			}
			b, err := ref.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Rows) != len(b.Rows) {
				t.Errorf("%s: %d vs %d rows", sql, len(a.Rows), len(b.Rows))
			}
		}
	}
}

func TestSketchNamesAndFallbacks(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 9})
	sk := NewSketchEstimator(ds.DB, 32)
	sm := NewSampleEstimator(ds.DB, 100, 1)
	if sk.Name() != "sketch" || sm.Name() != "sample" {
		t.Error("names broken")
	}
}

func TestSampleEstimatorRate(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 4, Seed: 13})
	// 2% of fact (1600 rows → 32) clamps to min 50.
	est := NewSampleEstimatorRate(ds.DB, 0.02, 50, 200, 3)
	e := engine.New(ds.DB, ds.Schema, est)
	q := analyzeQuery(t, e, "SELECT COUNT(*) FROM fact WHERE val < 50")
	got := est.EstimateFilter(q.Tables[0])
	truth, err := e.TrueCardinality("SELECT COUNT(*) FROM fact WHERE val < 50")
	if err != nil {
		t.Fatal(err)
	}
	// Coarse: a 50-row sample should land within 2x on a 50% filter.
	if qe := QError(got, truth); qe > 2 {
		t.Errorf("rate-sampled estimate %g vs truth %g (q=%g)", got, truth, qe)
	}
	// Defaults clamp sanely.
	est2 := NewSampleEstimatorRate(ds.DB, 0, 0, 0, 3)
	if est2 == nil {
		t.Fatal("default-rate estimator missing")
	}
}

func TestSampleJoinLiveColumnChain(t *testing.T) {
	// Three-table chain through the sample join's signature compression.
	ds := datagen.Toy(datagen.Config{Scale: 2, Seed: 14})
	est := NewSampleEstimator(ds.DB, 400, 5)
	e := engine.New(ds.DB, ds.Schema, est)
	// Self-join style chain: fact ⋈ dim ⋈ fact2 is unavailable in toy, so
	// exercise the 2-cond path via aliases.
	sql := "SELECT COUNT(*) FROM fact f1, dim d, fact f2 WHERE f1.dim_id = d.id AND f2.dim_id = d.id AND f1.val < 30 AND f2.val > 70"
	q := analyzeQuery(t, e, sql)
	got := est.EstimateJoin(q.Tables, q.Joins)
	truth, err := e.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qe := QError(got, truth); qe > 30 {
		t.Errorf("chain sample estimate %g vs truth %g (q=%g)", got, truth, qe)
	}
}

// keyDB builds one single-column table per entry of keys, column k.
func keyDB(kind types.Kind, keys map[string][]types.Datum) *storage.Database {
	db := storage.NewDatabase()
	for name, vals := range keys {
		b := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "k", Kind: kind}})
		for _, v := range vals {
			b.Append([]types.Datum{v})
		}
		db.Add(b.Build())
	}
	return db
}

// TestSampleJoinDistinctKeysNeverMerge joins full-size samples on keys that
// hash alike — 1e300 and 2e300 once saturated int64 in Datum.Hash64, and
// 2^53 and 2^53+1 share a float image — so an estimate that merges tuples
// by hash counts two matches where there is one.
func TestSampleJoinDistinctKeysNeverMerge(t *testing.T) {
	for _, c := range []struct {
		kind types.Kind
		a, b []types.Datum
	}{
		{types.KindFloat64, []types.Datum{types.Float(1e300), types.Float(2e300)}, []types.Datum{types.Float(1e300)}},
		{types.KindInt64, []types.Datum{types.Int(1 << 53), types.Int(1<<53 + 1)}, []types.Datum{types.Int(1 << 53)}},
	} {
		db := keyDB(c.kind, map[string][]types.Datum{"a": c.a, "b": c.b})
		est := NewSampleEstimator(db, 10, 1)
		e := engine.New(db, catalog.NewSchema(), est)
		sql := "SELECT COUNT(*) FROM a, b WHERE a.k = b.k"
		q := analyzeQuery(t, e, sql)
		truth, err := e.TrueCardinality(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := est.EstimateJoin(q.Tables, q.Joins); got != 1 || truth != 1 {
			t.Errorf("%s keys: estimate %g, truth %g; want 1", c.kind, got, truth)
		}
	}
}

// TestSampleJoinAllocs is the sample join's allocation gate: a filtered
// four-table estimate allocates per table, per column and per distinct key —
// never per sample row — so 500- and 4000-row samples cost the same count.
func TestSampleJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	db := storage.NewDatabase()
	for _, name := range []string{"a", "b", "c", "d"} {
		b := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}, {Name: "v", Kind: types.KindInt64}})
		for i := 0; i < 20000; i++ {
			b.Append([]types.Datum{types.Int(int64(i % 8)), types.Int(int64(i * 37 % 100))})
		}
		db.Add(b.Build())
	}
	// a and c keep a fifth of their rows, below compressThreshold at both
	// sizes; a⋈b and the final step cross it at both.
	sql := "SELECT COUNT(*) FROM a, b, c, d WHERE a.k = b.k AND b.k = c.k AND c.k = d.k AND a.v < 20 AND b.v < 50 AND c.v < 20 AND d.v < 50"
	var counts []float64
	for _, rows := range []int{500, 4000} {
		est := NewSampleEstimator(db, rows, 7)
		e := engine.New(db, catalog.NewSchema(), est)
		q := analyzeQuery(t, e, sql)
		truth, err := e.TrueCardinality(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := est.EstimateJoin(q.Tables, q.Joins); QError(got, truth) > 2 {
			t.Fatalf("%d-row samples: estimate %g, truth %g", rows, got, truth)
		}
		allocs := testing.AllocsPerRun(20, func() { est.EstimateJoin(q.Tables, q.Joins) })
		t.Logf("%d-row samples: %.0f allocs per estimate", rows, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("allocations grow with the sample: %.0f at 500 rows, %.0f at 4000", counts[0], counts[1])
	}
}
