package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// oneColumn builds a single-column table holding vals.
func oneColumn(name string, kind types.Kind, vals []types.Datum) *storage.Column {
	b := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "c", Kind: kind}})
	for _, v := range vals {
		b.Append([]types.Datum{v})
	}
	return b.Build().ColByName("c")
}

// TestPairCodecsMatchDatumEqual pins the codec contract: for every pair of
// column kinds a join can meet, two values' key words are equal exactly
// when Datum.Equal says the values are.
func TestPairCodecsMatchDatumEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ints := func(vs ...int64) []types.Datum {
		out := make([]types.Datum, len(vs))
		for i, v := range vs {
			out[i] = types.Int(v)
		}
		return out
	}
	floats := func(vs ...float64) []types.Datum {
		out := make([]types.Datum, len(vs))
		for i, v := range vs {
			out[i] = types.Float(v)
		}
		return out
	}
	strs := func(vs ...string) []types.Datum {
		out := make([]types.Datum, len(vs))
		for i, v := range vs {
			out[i] = types.Str(v)
		}
		return out
	}
	cases := []struct {
		name         string
		lkind, rkind types.Kind
		l, r         []types.Datum
	}{
		{"int/int", types.KindInt64, types.KindInt64,
			ints(0, 3, -3, math.MaxInt64, math.MinInt64, 3), ints(3, 0, 7, math.MaxInt64, -3)},
		{"float/float", types.KindFloat64, types.KindFloat64,
			floats(0, negZero, 3, 2.5, -2.5, math.Inf(1), 1e300), floats(negZero, 0, 3, 2.5, 2.25, math.Inf(-1), math.Inf(1))},
		{"int/float", types.KindInt64, types.KindFloat64,
			ints(0, 3, -3, 2, 1<<40), floats(negZero, 0, 3, 3.5, -3, 2.0000001, float64(1<<40))},
		{"float/int", types.KindFloat64, types.KindInt64,
			floats(negZero, 3, 3.5, -7), ints(0, 3, 4, -7)},
		// Two dictionaries that only partly overlap: equal strings carry
		// different codes on the two sides, and some codes coincide for
		// different strings.
		{"string/string", types.KindString, types.KindString,
			strs("ant", "bee", "cat", "dog", "", "bee"), strs("bee", "cow", "dog", "eel", "ant!", "")},
		{"array/array", types.KindArray, types.KindArray,
			[]types.Datum{types.Arr("[1]"), types.Arr("[2]")}, []types.Datum{types.Arr("[2]"), types.Arr("[3]")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lcol, rcol := oneColumn("l", c.lkind, c.l), oneColumn("r", c.rkind, c.r)
			lc, rc, ok := pairCodecs(lcol, rcol)
			if !ok {
				t.Fatal("pairCodecs rejected a comparable pair")
			}
			lc.r, rc.r = lcol.NewReader(nil), rcol.NewReader(nil)
			for i := range c.l {
				for j := range c.r {
					got := lc.word(int32(i)) == rc.word(int32(j))
					if want := c.l[i].Equal(c.r[j]); got != want {
						t.Errorf("%v vs %v: words equal = %v, Datum.Equal = %v", c.l[i], c.r[j], got, want)
					}
				}
			}
		})
	}
	for _, pair := range [][2]types.Kind{
		{types.KindString, types.KindInt64},
		{types.KindFloat64, types.KindString},
		{types.KindArray, types.KindMap},
		{types.KindString, types.KindArray},
	} {
		l, r := oneColumn("l", pair[0], nil), oneColumn("r", pair[1], nil)
		if _, _, ok := pairCodecs(l, r); ok {
			t.Errorf("pairCodecs(%s, %s) accepted kinds no value of which can be equal", pair[0], pair[1])
		}
	}
}

// TestWordTableAllCollidingHashes drives two-word keys through a table
// whose every hash is the same word, across several growths: identity must
// come from the key words alone, ids stay dense in first-occurrence order,
// and absent keys (also colliding) are not found.
func TestWordTableAllCollidingHashes(t *testing.T) {
	const n = 300
	tab := newWordTable(new(scratch), 2, 0)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			id, added := tab.insert(42, []uint64{uint64(i % 17), uint64(i)})
			if id != int32(i) || added != (round == 0) {
				t.Fatalf("round %d key %d: id %d added %v", round, i, id, added)
			}
		}
	}
	if tab.len() != n {
		t.Fatalf("len = %d, want %d", tab.len(), n)
	}
	for i := 0; i < n; i++ {
		if id := tab.find(42, []uint64{uint64(i % 17), uint64(i)}); id != int32(i) {
			t.Errorf("find key %d = %d", i, id)
		}
	}
	if id := tab.find(42, []uint64{3, n + 3}); id != -1 {
		t.Errorf("absent key found as %d", id)
	}
	if id := tab.find(42, []uint64{4, 3}); id != -1 {
		t.Errorf("key with swapped-in first word found as %d", id)
	}
}

// TestMergeTableAbsorbKeepsSequentialOrder is the fused parallel path's
// invariant in miniature: per-chunk tables absorbed in chunk order equal
// one sequential pass — same entries, same representatives, same counts,
// same order.
func TestMergeTableAbsorbKeepsSequentialOrder(t *testing.T) {
	type tuple struct {
		sig   uint64
		count int64
	}
	var stream []tuple
	for i := 0; i < 1000; i++ {
		stream = append(stream, tuple{sig: uint64(i*7919) % 37, count: int64(i%5 + 1)})
	}
	add := func(mt *mergeTable, i int) {
		sig := []uint64{stream[i].sig}
		mt.add(hashWords(sig), sig, int32(i), int32(-i), stream[i].count)
	}
	s := new(scratch)
	seq := newMergeTable(s, 1, 0)
	for i := range stream {
		add(&seq, i)
	}
	var merged *mergeTable
	for lo := 0; lo < len(stream); lo += 128 {
		part := newMergeTable(s, 1, 0)
		for i := lo; i < lo+128 && i < len(stream); i++ {
			add(&part, i)
		}
		if merged == nil {
			merged = &part
		} else {
			merged.absorb(&part)
		}
	}
	if !reflect.DeepEqual(seq.left, merged.left) || !reflect.DeepEqual(seq.right, merged.right) ||
		!reflect.DeepEqual(seq.counts, merged.counts) || !reflect.DeepEqual(seq.sigs.words, merged.sigs.words) {
		t.Errorf("chunk-order absorb diverges from the sequential pass")
	}
}

// typedJoinDB is a hand-built star: a 5000-row fact table with a string
// key, a float key and an int key, and three small dimensions whose key
// columns have other dictionaries and other kinds. Each key value fans out
// to ≥ 625 fact rows, so join outputs cross compressThreshold and (at
// Parallelism 4) the fact side crosses tupleChunk.
func typedJoinDB() *storage.Database {
	db := storage.NewDatabase()
	f := storage.NewBuilder("f", []storage.ColumnSpec{
		{Name: "skey", Kind: types.KindString},
		{Name: "fkey", Kind: types.KindFloat64},
		{Name: "ikey", Kind: types.KindInt64},
		{Name: "val", Kind: types.KindInt64},
		{Name: "fval", Kind: types.KindFloat64},
	})
	for i := 0; i < 5000; i++ {
		fkey := float64(i%8) + 0.5*float64(i%2)
		if i%8 == 0 && i%16 != 0 {
			fkey = math.Copysign(0, -1)
		}
		f.Append([]types.Datum{
			types.Str(fmt.Sprintf("k%d", i%4)),
			types.Float(fkey),
			types.Int(int64(i % 8)),
			types.Int(int64(i)),
			types.Float(float64(i%100) * 0.25),
		})
	}
	db.Add(f.Build())

	// ds: string keys k1..k5 and two strangers — k0 is missing, so the
	// dictionaries overlap only in part and equal strings differ in code.
	ds := storage.NewBuilder("ds", []storage.ColumnSpec{
		{Name: "skey", Kind: types.KindString},
		{Name: "ikey", Kind: types.KindInt64},
		{Name: "grp", Kind: types.KindInt64},
	})
	for i, s := range []string{"a0", "k1", "k2", "k2", "k3", "k4", "k5", "zz"} {
		ds.Append([]types.Datum{types.Str(s), types.Int(int64(i % 8)), types.Int(int64(i % 3))})
	}
	db.Add(ds.Build())

	// df: float keys, some integral (joining f.ikey through the float
	// image, and f.fkey bit for bit), -0.0 (equal to 0 and 0.0), and
	// fractions no int equals.
	df := storage.NewBuilder("df", []storage.ColumnSpec{
		{Name: "fkey", Kind: types.KindFloat64},
		{Name: "wt", Kind: types.KindFloat64},
	})
	for i, v := range []float64{math.Copysign(0, -1), 1, 1.5, 2, 3.5, 5, 7, 7.25, 9} {
		df.Append([]types.Datum{types.Float(v), types.Float(float64(i) + 0.5)})
	}
	db.Add(df.Build())

	// di: int keys joined to f.fkey (float) — the mixed pair the other way.
	di := storage.NewBuilder("di", []storage.ColumnSpec{
		{Name: "ikey", Kind: types.KindInt64},
		{Name: "tag", Kind: types.KindString},
	})
	for i := 0; i < 6; i++ {
		di.Append([]types.Datum{types.Int(int64(i)), types.Str(fmt.Sprintf("t%d", i%2))})
	}
	db.Add(di.Build())
	return db
}

// TestTypedJoinsMatchNaive runs string, float, mixed int/float and
// multi-condition joins with ≥ 1024-row fan-out — so compression and the
// fused probe engage — against the nested-loop oracle, sequentially and at
// four workers, and requires the two executions to agree byte for byte.
func TestTypedJoinsMatchNaive(t *testing.T) {
	db := typedJoinDB()
	queries := []string{
		"SELECT ds.grp, COUNT(*), SUM(f.val), MIN(f.val), MAX(f.val), COUNT(DISTINCT f.ikey) FROM f, ds WHERE f.skey = ds.skey GROUP BY ds.grp",
		"SELECT COUNT(*), MIN(f.skey), MAX(ds.skey) FROM f, ds WHERE f.skey = ds.skey",
		"SELECT COUNT(*), SUM(df.wt), AVG(f.fval) FROM f, df WHERE f.fkey = df.fkey",
		"SELECT df.fkey, COUNT(*), SUM(f.val) FROM f, df WHERE f.ikey = df.fkey GROUP BY df.fkey",
		"SELECT di.tag, COUNT(*), MAX(f.fval), COUNT(DISTINCT f.skey) FROM f, di WHERE f.fkey = di.ikey GROUP BY di.tag",
		"SELECT ds.grp, COUNT(*), SUM(f.fval) FROM f, ds WHERE f.skey = ds.skey AND f.ikey = ds.ikey GROUP BY ds.grp",
		"SELECT ds.grp, di.tag, COUNT(*), SUM(df.wt), MIN(f.val), COUNT(DISTINCT f.val) FROM f, ds, df, di " +
			"WHERE f.skey = ds.skey AND f.ikey = df.fkey AND f.fkey = di.ikey GROUP BY ds.grp, di.tag",
		"SELECT COUNT(*) FROM f, ds, df WHERE f.skey = ds.skey AND f.fkey = df.fkey AND f.val < 4000",
	}
	for _, sql := range queries {
		t.Run(sql, func(t *testing.T) {
			seq := New(db, catalog.NewSchema(), HeuristicEstimator{})
			seq.Parallelism = 1
			par := New(db, catalog.NewSchema(), HeuristicEstimator{})
			par.Parallelism = 4
			rs, err := seq.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := seq.RunNaive(sql)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, rs, slow)
			if !reflect.DeepEqual(rs.Rows, rp.Rows) {
				t.Errorf("rows diverge at 1 vs 4 workers:\nseq: %v\npar: %v", rs.Rows, rp.Rows)
			}
			if a, b := rs.Metrics.IO.BlocksRead(), rp.Metrics.IO.BlocksRead(); a != b {
				t.Errorf("BlocksRead diverge: seq %d, par %d", a, b)
			}
			if a, b := rs.Metrics.RowsMaterialized, rp.Metrics.RowsMaterialized; a != b {
				t.Errorf("RowsMaterialized diverge: seq %d, par %d", a, b)
			}
		})
	}
}

// TestJoinOfIncomparableKindsIsEmpty: a string column joined to an int
// column can never match; the join is empty rather than an error.
func TestJoinOfIncomparableKindsIsEmpty(t *testing.T) {
	e := New(typedJoinDB(), catalog.NewSchema(), HeuristicEstimator{})
	res, err := e.Run("SELECT COUNT(*) FROM f, di WHERE f.skey = di.ikey")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.ScalarInt(); n != 0 {
		t.Errorf("count = %d, want 0", n)
	}
}

// TestFusedProbeCountsJoinMatches pins Metrics.RowsMaterialized to the
// join's match count — the exploded relation's size — even though the
// fused probe never builds it.
func TestFusedProbeCountsJoinMatches(t *testing.T) {
	e := New(typedJoinDB(), catalog.NewSchema(), HeuristicEstimator{})
	res, err := e.Run("SELECT COUNT(*) FROM f, ds WHERE f.skey = ds.skey")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.ScalarInt()
	// k1 and k3 match one ds row each, k2 two: 1250 fact rows per key.
	if n != 4*1250 {
		t.Fatalf("count = %d, want %d", n, 4*1250)
	}
	scanned := int64(5000 + 8)
	if got := res.Metrics.RowsMaterialized; got < n || got > n+scanned {
		t.Errorf("RowsMaterialized = %d, want the %d join matches plus at most %d scanned rows", got, n, scanned)
	}
}

// TestMaxIntermediateRowsGuard: the guard counts join matches, same
// threshold and error as ever, before anything is materialized.
func TestMaxIntermediateRowsGuard(t *testing.T) {
	db := storage.NewDatabase()
	for _, name := range []string{"ga", "gb"} {
		b := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}, {Name: "v", Kind: types.KindInt64}})
		for i := 0; i < 8000; i++ {
			b.Append([]types.Datum{types.Int(1), types.Int(int64(i))})
		}
		db.Add(b.Build())
	}
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	// 8000 x 8000 matches, every one a distinct (ga.v, gb.v) signature.
	_, err := e.Run("SELECT COUNT(DISTINCT ga.v, gb.v) FROM ga, gb WHERE ga.k = gb.k")
	want := fmt.Sprintf("engine: join intermediate exceeds %d rows", int64(MaxIntermediateRows))
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// TestEmptyIntermediateStopsTheJoin: once the relation is empty no later
// table is scanned — no blocks read, no strategy recorded — and the result
// is what the oracle computes (one row for a global aggregate, none for a
// grouped one).
func TestEmptyIntermediateStopsTheJoin(t *testing.T) {
	db := typedJoinDB()
	for _, sql := range []string{
		"SELECT COUNT(*), SUM(f.val) FROM f, ds, df WHERE f.skey = ds.skey AND f.fkey = df.fkey AND ds.grp > 99",
		"SELECT ds.grp, COUNT(*) FROM f, ds, df WHERE f.skey = ds.skey AND f.fkey = df.fkey AND ds.grp > 99 GROUP BY ds.grp",
	} {
		for _, workers := range []int{1, 4} {
			e := New(db, catalog.NewSchema(), HeuristicEstimator{})
			e.Parallelism = workers
			stmt := analyze(t, e, sql)
			plan, err := e.Plan(stmt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := e.RunNaive(sql)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, res, slow)
			// ds filters to nothing wherever the planner put it; every
			// table ordered after the step that emptied the relation must
			// be untouched.
			empty := -1
			for i, idx := range plan.JoinOrder {
				if stmt.Tables[idx].Binding == "ds" {
					empty = i
				}
			}
			if empty == len(plan.JoinOrder)-1 {
				t.Fatalf("planner joined ds last (%v); the query no longer exercises the short-circuit", plan.JoinOrder)
			}
			for _, idx := range plan.JoinOrder[empty+1:] {
				b := stmt.Tables[idx].Binding
				if sb, ok := res.Metrics.ScanBlocks[b]; ok {
					t.Errorf("%d workers: table %s scanned after the relation went empty: %+v", workers, b, sb)
				}
				if s, ok := res.Metrics.ReaderStrategy[b]; ok {
					t.Errorf("%d workers: table %s has reader strategy %q, want none", workers, b, s)
				}
			}
			var read int64
			for _, idx := range plan.JoinOrder[:empty+1] {
				read += int64(res.Metrics.ScanBlocks[stmt.Tables[idx].Binding].Read)
			}
			if got := res.Metrics.IO.BlocksRead(); got != read {
				t.Errorf("%d workers: %d blocks read, but the tables up to the empty step account for %d", workers, got, read)
			}
		}
	}
}

// joinStepFixture is one join step in isolation: left (keys 0..keys-1, each
// on rows/keys rows) against right (each key on fanout rows), under a
// grouped SUM so the step's output is compressed.
type joinStepFixture struct {
	e           *Engine
	q           *Query
	p           *Plan
	left, right int
	bindingIdx  map[string]int
}

func newJoinStepFixture(tb testing.TB, rows, keys, fanout int) *joinStepFixture {
	tb.Helper()
	l := storage.NewBuilder("l", []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}, {Name: "g", Kind: types.KindInt64}})
	for i := 0; i < rows; i++ {
		l.Append([]types.Datum{types.Int(int64(i % keys)), types.Int(int64(i % 16))})
	}
	r := storage.NewBuilder("r", []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}, {Name: "v", Kind: types.KindInt64}})
	for i := 0; i < keys*fanout; i++ {
		r.Append([]types.Datum{types.Int(int64(i % keys)), types.Int(int64(i % 7))})
	}
	db := storage.NewDatabase()
	db.Add(l.Build())
	db.Add(r.Build())
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	e.Parallelism = 1
	q := analyze(tb, e, "SELECT l.g, COUNT(*), SUM(r.v) FROM l, r WHERE l.k = r.k GROUP BY l.g")
	p, err := e.Plan(q)
	if err != nil {
		tb.Fatal(err)
	}
	f := &joinStepFixture{e: e, q: q, p: p, bindingIdx: map[string]int{}}
	for i, t := range q.Tables {
		f.bindingIdx[t.Binding] = i
	}
	f.left, f.right = f.bindingIdx["l"], f.bindingIdx["r"]
	return f
}

// run scans l, then executes the l ⋈ r step, returning the match count.
func (f *joinStepFixture) run(tb testing.TB) int64 {
	m := Metrics{IO: &storage.IOStats{}, ReaderStrategy: map[string]string{}}
	ex := &execCtx{workers: 1, s: getScratch()}
	defer ex.s.release()
	states := make([]*scanState, len(f.q.Tables))
	st := f.e.executeScan(f.q, f.p.Scans[f.left], &m, ex, 0)
	states[f.left] = st
	inter := scanIntermediate(ex.s, f.left, st.rows)
	scanned := m.RowsMaterialized
	if _, err := f.e.joinNext(f.q, f.p, states, inter, f.right, nil, f.bindingIdx, &m, ex); err != nil {
		tb.Fatal(err)
	}
	return m.RowsMaterialized - scanned - int64(len(states[f.right].rows))
}

// TestJoinStepAllocsIndependentOfTupleCount is the allocation gate: a join
// step allocates per column and per bound reader — never per tuple, and,
// with its tables and vectors drawn from the warm scratch pool, not per
// doubling either. Sixty-four times the tuples (same keys, same groups)
// allocate exactly as often.
func TestJoinStepAllocsIndependentOfTupleCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	small := newJoinStepFixture(t, 2048, 64, 16)
	big := newJoinStepFixture(t, 16384, 64, 128)
	if s, b := small.run(t), big.run(t); b < 60*s {
		t.Fatalf("fixtures join %d and %d tuples; want the big one ≥ 60x the small one", s, b)
	}
	allocsSmall := testing.AllocsPerRun(5, func() { small.run(t) })
	allocsBig := testing.AllocsPerRun(5, func() { big.run(t) })
	t.Logf("join step allocs/run: %.0f at 32k tuples, %.0f at 2M tuples", allocsSmall, allocsBig)
	if allocsBig > allocsSmall {
		t.Errorf("join step allocations grow with the tuple count: %.0f → %.0f", allocsSmall, allocsBig)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes f
// allocates per call, at GOMAXPROCS 1, after one warm-up call. The
// allocation counter is process-wide, so the least of three batches is
// taken: a stray allocation elsewhere in the process can only add.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// starEngine builds a 4096-row fact f whose keys k1..k3 each take 64
// values (no two rows share k1 and k2), and three 256-row dimensions d1..d3 whose key cycles over
// 256/fanout values, so each fact row joins fanout rows of each dimension:
// fanout 4 joins 64 times the tuples of fanout 1 over tables of the same
// size.
func starEngine(tb testing.TB, fanout int) *Engine {
	tb.Helper()
	db := storage.NewDatabase()
	f := storage.NewBuilder("f", []storage.ColumnSpec{{Name: "k1", Kind: types.KindInt64}, {Name: "k2", Kind: types.KindInt64}, {Name: "k3", Kind: types.KindInt64}})
	for i := 0; i < 4096; i++ {
		f.Append([]types.Datum{types.Int(int64(i % 64)), types.Int(int64(i / 64)), types.Int(int64(i * 13 % 64))})
	}
	db.Add(f.Build())
	for _, name := range []string{"d1", "d2", "d3"} {
		d := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}, {Name: "g", Kind: types.KindInt64}})
		for i := 0; i < 256; i++ {
			d.Append([]types.Datum{types.Int(int64(i % (256 / fanout))), types.Int(int64(i % 8))})
		}
		db.Add(d.Build())
	}
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	e.Parallelism = 1
	return e
}

// TestWarmJoinBytesAllocs is the working-memory gate of a join: once the
// scratch pool is warm, a 4-table star join allocates the same bytes per
// run at 1x and 64x the joined tuples — every table and vector that grows
// with them is drawn from the pool.
func TestWarmJoinBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	const sql = "SELECT d3.g, COUNT(*) FROM f, d1, d2, d3 WHERE f.k1 = d1.k AND f.k2 = d2.k AND f.k3 = d3.k GROUP BY d3.g"
	var bytes, tuples [2]uint64
	for i, fanout := range []int{1, 4} {
		e := starEngine(t, fanout)
		p, err := e.Plan(analyze(t, e, sql))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = uint64(res.Metrics.ActualFinalRows)
		bytes[i] = bytesPerRun(20, func() {
			if _, err := e.Execute(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("warm 4-table join: %d bytes/run at %d tuples, %d at %d", bytes[0], tuples[0], bytes[1], tuples[1])
	if tuples[1] != 64*tuples[0] {
		t.Fatalf("fixtures join %d and %d tuples; want 64x", tuples[0], tuples[1])
	}
	if bytes[1] != bytes[0] {
		t.Errorf("join bytes grow with the tuples: %d at 1x, %d at 64x", bytes[0], bytes[1])
	}
}

// BenchmarkJoinStep measures one join step (key interning, right-side
// grouping, fused probe → compress) at three fan-outs; ns/tuple is per
// joined (left tuple, right row) pair.
func BenchmarkJoinStep(b *testing.B) {
	for _, fanout := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			f := newJoinStepFixture(b, 4096, 4096, fanout)
			tuples := f.run(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*tuples), "ns/tuple")
		})
	}
}

// joinSizeBase is a physical table for the JoinSize differential test: two
// int keys and a float, holding integral values, halves and −0, and a
// string key over a dictionary of its own (prefix), all of low cardinality.
func joinSizeBase(rng *rand.Rand, name, prefix string, n int) *storage.Table {
	b := storage.NewBuilder(name, []storage.ColumnSpec{
		{Name: "i", Kind: types.KindInt64},
		{Name: "j", Kind: types.KindInt64},
		{Name: "f", Kind: types.KindFloat64},
		{Name: "s", Kind: types.KindString},
	})
	floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5}
	for r := 0; r < n; r++ {
		b.Append([]types.Datum{
			types.Int(int64(rng.Intn(3))),
			types.Int(int64(rng.Intn(4))),
			types.Float(floats[rng.Intn(len(floats))]),
			types.Str(fmt.Sprintf("%s%d", prefix, rng.Intn(3))),
		})
	}
	return b.Build()
}

// naiveJoinSize is the oracle: RunNaive's COUNT(*) over each binding's
// rows gathered into a table of its own.
func naiveJoinSize(t *testing.T, tables []*QueryTable, rows [][]int32, joins []JoinCond) int64 {
	t.Helper()
	db := storage.NewDatabase()
	var from, where []string
	for i, qt := range tables {
		g := qt.Table.Gather(rows[i])
		name := fmt.Sprintf("g%d", i)
		b := storage.NewBuilder(name, []storage.ColumnSpec{
			{Name: "i", Kind: types.KindInt64}, {Name: "j", Kind: types.KindInt64},
			{Name: "f", Kind: types.KindFloat64}, {Name: "s", Kind: types.KindString},
		})
		for r := 0; r < g.NumRows(); r++ {
			b.Append(g.Row(r))
		}
		db.Add(b.Build())
		from = append(from, name+" "+qt.Binding)
	}
	for _, j := range joins {
		where = append(where, j.String())
	}
	sql := "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	res, err := New(db, catalog.NewSchema(), HeuristicEstimator{}).RunNaive(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	n, err := res.ScalarInt()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestJoinSizeMatchesNaive is JoinSize's differential test: random 2–6
// table trees over three physical tables (so bindings often alias one
// table — self-joins whose string keys share a dictionary), with int,
// float, string and mixed int↔float keys, steps of one or two conditions,
// empty selections, and low-cardinality keys whose outputs cross
// compressThreshold. Every count must equal the oracle's.
func TestJoinSizeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	bases := []*storage.Table{
		joinSizeBase(rng, "p", "a", 40),
		joinSizeBase(rng, "q", "b", 40),
		joinSizeBase(rng, "r", "a", 3000),
	}
	pairs := [][2]string{{"i", "i"}, {"i", "j"}, {"j", "j"}, {"f", "f"}, {"i", "f"}, {"f", "j"}, {"s", "s"}}
	var compressed int
	for trial := 0; trial < 120; trial++ {
		// Every fourth trial starts from a big table (the scan-side
		// compress); every fourth joins one second, so a middle step's
		// matches cross compressThreshold and the merged relation feeds
		// later steps.
		n, big := 2+rng.Intn(5), -1
		switch trial % 4 {
		case 0:
			big = 0
		case 1:
			n, big = 3+rng.Intn(2), 1
		}
		tables := make([]*QueryTable, n)
		rows := make([][]int32, n)
		var joins []JoinCond
		for k := range tables {
			base := bases[rng.Intn(2)]
			size := rng.Intn(17)
			if k == big {
				base, size = bases[2], 1100+rng.Intn(500)
			}
			if rng.Intn(10) == 0 {
				size = 0
			}
			tables[k] = &QueryTable{Binding: fmt.Sprintf("b%d", k), Name: base.Name(), Table: base}
			for _, r := range rng.Perm(base.NumRows())[:size] {
				rows[k] = append(rows[k], int32(r))
			}
			if k == 0 {
				continue
			}
			parent := fmt.Sprintf("b%d", rng.Intn(k))
			for c := 1 + rng.Intn(3)/2; c > 0; c-- {
				p := pairs[rng.Intn(len(pairs))]
				j := JoinCond{LeftTab: tables[k].Binding, LeftCol: p[0], RightTab: parent, RightCol: p[1]}
				if rng.Intn(2) == 0 {
					j = JoinCond{LeftTab: j.RightTab, LeftCol: j.RightCol, RightTab: j.LeftTab, RightCol: j.LeftCol}
				}
				joins = append(joins, j)
			}
		}
		rng.Shuffle(len(joins), func(a, b int) { joins[a], joins[b] = joins[b], joins[a] })
		got, err := JoinSize(tables, rows, joins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := naiveJoinSize(t, tables, rows, joins); got != want {
			t.Fatalf("trial %d: JoinSize = %d, oracle %d (joins %v)", trial, got, want, joins)
		}
		if got >= compressThreshold {
			compressed++
		}
	}
	if compressed < 10 {
		t.Errorf("only %d trials reached compressThreshold; the merge path is under-exercised", compressed)
	}
}

// TestJoinSizeErrors: a table that joins nothing before it in the given
// order — even after an empty prefix — and a condition naming a table not
// given are errors, not counts.
func TestJoinSizeErrors(t *testing.T) {
	base := joinSizeBase(rand.New(rand.NewSource(1)), "p", "a", 20)
	tab := func(b string) *QueryTable { return &QueryTable{Binding: b, Name: "p", Table: base} }
	all := rowRange(new(scratch), 0, base.NumRows())
	chain := []JoinCond{{LeftTab: "a", LeftCol: "i", RightTab: "c", RightCol: "i"}, {LeftTab: "c", LeftCol: "j", RightTab: "b", RightCol: "j"}}
	abc := []*QueryTable{tab("a"), tab("b"), tab("c")}
	for _, rows := range [][][]int32{{all, all, all}, {nil, all, all}} {
		if _, err := JoinSize(abc, rows, chain); err == nil || !strings.Contains(err.Error(), "joins nothing") {
			t.Errorf("b joins nothing before it: err = %v", err)
		}
	}
	// In a connected order the same tables join fine.
	if _, err := JoinSize([]*QueryTable{tab("a"), tab("c"), tab("b")}, [][]int32{all, all, all}, chain); err != nil {
		t.Errorf("connected order: %v", err)
	}
	stray := []JoinCond{{LeftTab: "a", LeftCol: "i", RightTab: "b", RightCol: "i"}, {LeftTab: "b", LeftCol: "i", RightTab: "z", RightCol: "i"}}
	if _, err := JoinSize(abc[:2], [][]int32{all, all}, stray); err == nil {
		t.Error("a condition naming an absent table must be an error")
	}

	// A star of 1000-row tables on one key value: six tables count 10^18
	// exactly; a seventh could pass 2^62 and is refused.
	flat := storage.NewBuilder("flat", []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}})
	for r := 0; r < 1000; r++ {
		flat.Append([]types.Datum{types.Int(7)})
	}
	ft := flat.Build()
	var star []*QueryTable
	var starRows [][]int32
	var starJoins []JoinCond
	for k := 0; k < 7; k++ {
		star = append(star, &QueryTable{Binding: fmt.Sprintf("s%d", k), Name: "flat", Table: ft})
		starRows = append(starRows, rowRange(new(scratch), 0, 1000))
		if k > 0 {
			starJoins = append(starJoins, JoinCond{LeftTab: "s0", LeftCol: "k", RightTab: star[k].Binding, RightCol: "k"})
		}
	}
	if n, err := JoinSize(star[:6], starRows[:6], starJoins[:5]); err != nil || n != 1e18 {
		t.Errorf("six-table star = %d, %v; want 10^18", n, err)
	}
	if _, err := JoinSize(star, starRows, starJoins); err == nil || !strings.Contains(err.Error(), "2^62") {
		t.Errorf("seven-table star: err = %v, want the 2^62 bound", err)
	}
}
