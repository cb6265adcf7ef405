package engine

import (
	"reflect"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// TestParallelMatchesSequential is the executor's worker-count invariant:
// for every query shape the executor supports, 2 and 4 workers must produce
// byte-identical result rows, and charge exactly the same blocks read and
// skipped, rows materialized, SIP-pruned rows and hash-table resizes, as
// one worker. The boundary cases put each dispatched phase at exactly one
// chunk and at one chunk + 1, where the dispatcher stops calling the phase
// body once and starts splitting it.
func TestParallelMatchesSequential(t *testing.T) {
	datasets := map[string]*datagen.Dataset{
		"imdb":     datagen.IMDB(datagen.Config{Scale: 0.2, Seed: 31}),
		"stats":    datagen.STATS(datagen.Config{Scale: 0.1, Seed: 32}),
		"boundary": boundaryDataset(),
	}
	type parityCase struct {
		sql    string
		reader string // ForceReader; empty plans the reader
	}
	queries := map[string][]parityCase{
		"imdb": {
			{sql: "SELECT COUNT(*) FROM title"},
			{sql: "SELECT COUNT(*) FROM title WHERE title.production_year > 2005"},
			{sql: "SELECT COUNT(*), SUM(ci.person_id), MIN(ci.person_id), MAX(ci.person_id), AVG(ci.person_id) FROM cast_info ci WHERE ci.role_id < 4"},
			{sql: "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id AND t.production_year > 1995"},
			{sql: "SELECT t.kind_id, COUNT(*), SUM(t.production_year) FROM title t GROUP BY t.kind_id"},
			{sql: "SELECT COUNT(DISTINCT ci.person_id) FROM cast_info ci WHERE ci.role_id = 1"},
			{sql: "SELECT t.kind_id, COUNT(*), COUNT(DISTINCT ci.role_id) FROM title t, cast_info ci WHERE ci.movie_id = t.id GROUP BY t.kind_id"},
		},
		"stats": {
			{sql: "SELECT COUNT(*) FROM votes WHERE votes.vote_type = 2 OR votes.creation_year > 2012"},
			{sql: "SELECT COUNT(*) FROM posts p, users u WHERE p.owner_user_id = u.id AND u.reputation > 50"},
			{sql: "SELECT c.creation_year, COUNT(*), SUM(c.score), MIN(c.score), MAX(c.score) FROM comments c GROUP BY c.creation_year"},
			{sql: "SELECT COUNT(*) FROM posts p, comments c, users u WHERE c.post_id = p.id AND p.owner_user_id = u.id AND u.reputation > 100"},
		},
	}
	for _, m := range []string{"m0", "m1"} {
		// Scans over morselRows (m0) and morselRows + 1 (m1) rows: the
		// single-stage and multi-stage readers, and the pushed-down scan,
		// whose MorselBlocks (m0) or MorselBlocks + 1 (m1) blocks all
		// survive.
		queries["boundary"] = append(queries["boundary"],
			parityCase{sql: "SELECT COUNT(*) FROM " + m + " WHERE " + m + ".a = 1 OR " + m + ".a = 3"},
			parityCase{sql: "SELECT COUNT(*), SUM(" + m + ".id) FROM " + m + " WHERE " + m + ".a >= 4 AND " + m + ".id >= 5"},
			parityCase{sql: "SELECT COUNT(*), SUM(" + m + ".id) FROM " + m + " WHERE " + m + ".a >= 4 AND " + m + ".id >= 5", reader: "single-stage"},
			parityCase{sql: "SELECT COUNT(*), SUM(" + m + ".id) FROM " + m + " WHERE " + m + ".a >= 4 AND " + m + ".id >= 5", reader: "multi-stage"})
	}
	for _, last := range []int{1 + MorselBlocks, 2 + MorselBlocks} {
		// A pushed-down window over blocks 2..last of w: MorselBlocks or
		// MorselBlocks + 1 surviving blocks, the others skipped.
		queries["boundary"] = append(queries["boundary"], parityCase{sql: "SELECT COUNT(*), SUM(w.v) FROM w WHERE " + blockWindow(2, last)})
	}
	for _, i := range []string{"0", "1"} {
		queries["boundary"] = append(queries["boundary"],
			// tupleChunk (l0) or tupleChunk + 1 (l1) distinct keys probe r
			// through the fused merge.
			parityCase{sql: "SELECT COUNT(*), COUNT(DISTINCT r.v) FROM l" + i + ", r WHERE l" + i + ".k = r.k"},
			// The SIP probe over morselRows (p0) or morselRows + 1 (p1) rows.
			parityCase{sql: "SELECT COUNT(*) FROM kx, p" + i + " WHERE kx.k = p" + i + ".k"},
			// tupleChunk (c0) or tupleChunk + 1 (c1) SIP candidates through
			// the conjunctive and the OR tail.
			parityCase{sql: "SELECT COUNT(*) FROM kx, c" + i + " WHERE kx.k = c" + i + ".k AND c" + i + ".a <= 5"},
			parityCase{sql: "SELECT COUNT(*) FROM kx, c" + i + " WHERE kx.k = c" + i + ".k AND (c" + i + ".a = 1 OR c" + i + ".a = 4)"},
			// tupleChunk (g0) or tupleChunk + 1 (g1) aggregation tuples.
			parityCase{sql: "SELECT g" + i + ".g, COUNT(*), SUM(g" + i + ".v) FROM g" + i + " GROUP BY g" + i + ".g"},
			parityCase{sql: "SELECT SUM(g" + i + ".v), MIN(g" + i + ".v), COUNT(DISTINCT g" + i + ".g) FROM g" + i})
	}
	for name, ds := range datasets {
		for _, c := range queries[name] {
			sub := name + "/" + c.sql
			if c.reader != "" {
				sub = name + "/" + c.reader + "/" + c.sql
			}
			t.Run(sub, func(t *testing.T) {
				run := func(workers int) *Result {
					e := New(ds.DB, ds.Schema, HeuristicEstimator{})
					e.Parallelism = workers
					e.ForceReader = c.reader
					res, err := e.Run(c.sql)
					if err != nil {
						t.Fatal(err)
					}
					if res.Metrics.ParallelWorkers != workers {
						t.Errorf("ParallelWorkers = %d, want %d", res.Metrics.ParallelWorkers, workers)
					}
					return res
				}
				rs := run(1)
				for _, workers := range []int{2, 4} {
					rp := run(workers)
					if !reflect.DeepEqual(rs.Rows, rp.Rows) {
						t.Fatalf("rows diverge:\n1 worker:  %v\n%d workers: %v", rs.Rows, workers, rp.Rows)
					}
					ms, mp := rs.Metrics, rp.Metrics
					for _, f := range []struct {
						name string
						a, b int64
					}{
						{"BlocksRead", ms.IO.BlocksRead(), mp.IO.BlocksRead()},
						{"BlocksSkipped", ms.IO.BlocksSkipped(), mp.IO.BlocksSkipped()},
						{"RowsMaterialized", ms.RowsMaterialized, mp.RowsMaterialized},
						{"SIPPruned", ms.SIPPruned, mp.SIPPruned},
						{"HashResizes", ms.HashResizes, mp.HashResizes},
						{"ActualFinalRows", ms.ActualFinalRows, mp.ActualFinalRows},
					} {
						if f.a != f.b {
							t.Errorf("%s diverges: 1 worker %d, %d workers %d", f.name, f.a, workers, f.b)
						}
					}
				}
			})
		}
	}
}

// boundaryDataset holds the tables of TestParallelMatchesSequential's
// boundary cases, each sized so one phase's input is exactly one chunk
// (the tables ending in 0) or one chunk + 1 (ending in 1):
//   - m0/m1 (morselRows rows): id is the row, a cycles 0..9;
//   - w (8 blocks): ts is the row, v cycles 0..6;
//   - l0/l1 (tupleChunk rows, k the row) against r (10000 rows, k cycling
//     0..2499 so each l key matches four r rows, v cycling 0..99);
//   - kx (16 keys) against p0/p1 (morselRows rows) and c0/c1 (4 tupleChunk
//     rows), whose k cycles 0..63, so a quarter of their rows match and c0
//     yields exactly tupleChunk SIP candidates;
//   - g0/g1 (tupleChunk rows): v is the row, so no two tuples merge before
//     aggregation. g0's 500 groups outgrow its presized group table once,
//     at every worker count alike. Past one chunk each worker's table is
//     presized to the estimate divided by the worker count, so its growth
//     depends on the worker count by design; g1's 150 groups fit every
//     worker's table.
//
// Each table's rows are appended with row(i).
func boundaryDataset() *datagen.Dataset {
	db := storage.NewDatabase()
	add := func(name string, rows int, cols []string, row func(i int) []int64) {
		specs := make([]storage.ColumnSpec, len(cols))
		for i, c := range cols {
			specs[i] = storage.ColumnSpec{Name: c, Kind: types.KindInt64}
		}
		b := storage.NewBuilder(name, specs)
		vals := make([]types.Datum, len(cols))
		for i := 0; i < rows; i++ {
			for j, v := range row(i) {
				vals[j] = types.Int(v)
			}
			b.Append(vals)
		}
		db.Add(b.Build())
	}
	for extra, s := range []string{"0", "1"} {
		add("m"+s, morselRows+extra, []string{"id", "a"}, func(i int) []int64 { return []int64{int64(i), int64(i % 10)} })
		add("l"+s, tupleChunk+extra, []string{"k"}, func(i int) []int64 { return []int64{int64(i)} })
		add("p"+s, morselRows+extra, []string{"k"}, func(i int) []int64 { return []int64{int64(i % 64)} })
		add("c"+s, 4*tupleChunk+extra, []string{"k", "a"}, func(i int) []int64 { return []int64{int64(i % 64), int64(i % 10)} })
	}
	add("w", 8*storage.BlockSize, []string{"ts", "v"}, func(i int) []int64 { return []int64{int64(i), int64(i % 7)} })
	add("r", 10000, []string{"k", "v"}, func(i int) []int64 { return []int64{int64(i % 2500), int64(i % 100)} })
	add("kx", 16, []string{"k"}, func(i int) []int64 { return []int64{int64(i)} })
	add("g0", tupleChunk, []string{"g", "v"}, func(i int) []int64 { return []int64{int64(i % 500), int64(i)} })
	add("g1", tupleChunk+1, []string{"g", "v"}, func(i int) []int64 { return []int64{int64(i % 150), int64(i)} })
	return &datagen.Dataset{Name: "boundary", DB: db, Schema: catalog.NewSchema()}
}

// TestParallelForcedReaders re-runs a filter query under both pinned reader
// strategies so the parallel single-stage and multi-stage scan paths are
// each exercised explicitly.
func TestParallelForcedReaders(t *testing.T) {
	ds := datagen.IMDB(datagen.Config{Scale: 0.2, Seed: 33})
	sql := "SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id = 2 AND ci.person_id < 500"
	for _, strategy := range []string{"single-stage", "multi-stage"} {
		seq := New(ds.DB, ds.Schema, HeuristicEstimator{})
		seq.Parallelism = 1
		seq.ForceReader = strategy
		par := New(ds.DB, ds.Schema, HeuristicEstimator{})
		par.Parallelism = 4
		par.ForceReader = strategy
		rs, err := seq.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := par.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs.Rows, rp.Rows) {
			t.Errorf("%s: rows diverge: %v vs %v", strategy, rs.Rows, rp.Rows)
		}
		if a, b := rs.Metrics.IO.BlocksRead(), rp.Metrics.IO.BlocksRead(); a != b {
			t.Errorf("%s: BlocksRead diverge: seq %d, par %d", strategy, a, b)
		}
	}
}

func TestKeysEqualRaggedLengths(t *testing.T) {
	a := []types.Datum{types.Int(1), types.Int(2)}
	b := []types.Datum{types.Int(1)}
	if keysEqual(a, b) || keysEqual(b, a) {
		t.Error("ragged key tuples must compare unequal")
	}
	if keysEqual(a, []types.Datum{types.Int(1), types.Int(3)}) {
		t.Error("differing tuples must compare unequal")
	}
	if !keysEqual(a, []types.Datum{types.Int(1), types.Int(2)}) {
		t.Error("equal tuples must compare equal")
	}
	if !keysEqual(nil, []types.Datum{}) {
		t.Error("empty tuples are equal regardless of nil-ness")
	}
}

// distinctAcc returns a fresh COUNT DISTINCT accumulator over width columns.
func distinctAcc(width int) *wordTable {
	return newAccs([]AggSpec{{Kind: AggCountDistinct, Cols: make([]ColRef, width)}})[0].distinct
}

// TestDistinctSetCollisions is the regression test for the COUNT DISTINCT
// accumulator: two different keys forced onto the same hash must count as
// two distinct values, and re-adding either must not.
func TestDistinctSetCollisions(t *testing.T) {
	s := distinctAcc(2)
	const h = uint64(0xdeadbeef)
	s.insert(h, []uint64{1, 0})
	s.insert(h, []uint64{2, 0}) // colliding hash, different key
	s.insert(h, []uint64{1, 0}) // duplicate
	s.insert(h, []uint64{0, 1}) // same words, other columns
	if s.len() != 3 {
		t.Errorf("distinct count = %d, want 3 (collisions must not dedup different keys)", s.len())
	}
	// The inserted keys must be copies: mutating the caller's buffer must
	// not corrupt the set.
	buf := []uint64{7, 7}
	s.insert(h, buf)
	buf[0] = 8
	s.insert(h, buf)
	if s.len() != 5 {
		t.Errorf("distinct count = %d, want 5 (keys must be copied on insert)", s.len())
	}
}

func TestDistinctSetMerge(t *testing.T) {
	a, b := distinctAcc(1), distinctAcc(1)
	a.insert(1, []uint64{10})
	a.insert(2, []uint64{20})
	b.insert(2, []uint64{20}) // shared member
	b.insert(2, []uint64{21}) // colliding with it
	b.insert(3, []uint64{30})
	a.absorb(b)
	if a.len() != 4 {
		t.Errorf("merged distinct count = %d, want 4", a.len())
	}
	for _, k := range []uint64{20, 21} {
		if a.find(2, []uint64{k}) < 0 {
			t.Errorf("merged set lost key %d", k)
		}
	}
}

// TestAggTableAllCollidingHashes drives the group table with every key
// hashed to the same value, across enough inserts to force several
// resizes — lookups must still resolve each key to its own group.
func TestAggTableAllCollidingHashes(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCountStar}}
	tab := newGroupTable(1, 1, aggs)
	const n = 200
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			tab.group(0, []uint64{uint64(i)}, int32(i))[0].count++
		}
	}
	if tab.keys.len() != n {
		t.Fatalf("groups = %d, want %d", tab.keys.len(), n)
	}
	if tab.keys.resizes == 0 {
		t.Error("expected resizes growing 200 groups from capacity 16")
	}
	for g := range tab.reps {
		if c := tab.accs(g)[0].count; c != 3 {
			t.Errorf("group %v count = %d, want 3", tab.keys.key(int32(g)), c)
		}
		if tab.reps[g] != int32(g) {
			t.Errorf("group %d representative = %d, want the tuple that opened it", g, tab.reps[g])
		}
	}
}

// TestAggTableDuplicateKeysAcrossResizes interleaves re-used keys with
// fresh ones so lookups must keep finding existing groups while the table
// rehashes underneath them, and pins the resize rule: from 16 slots at load
// 0.7, 500 groups take six doublings.
func TestAggTableDuplicateKeysAcrossResizes(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCountStar}}
	tab := newGroupTable(2, 1, aggs)
	const n = 500
	lookup := func(k int64) []aggAcc {
		key := []uint64{uint64(k), uint64(k % 3)}
		return tab.group(hashWords(key), key, int32(k))
	}
	for i := 0; i < n; i++ {
		for _, k := range []int64{int64(i), int64(i % 7)} {
			lookup(k)[0].count++
		}
	}
	if tab.keys.len() != n {
		t.Fatalf("groups = %d, want %d", tab.keys.len(), n)
	}
	if tab.keys.resizes != 6 {
		t.Errorf("resizes = %d, want 6 (16 → 1024 slots)", tab.keys.resizes)
	}
	var total int64
	for g := range tab.reps {
		total += tab.accs(g)[0].count
	}
	if total != 2*n {
		t.Errorf("total count = %d, want %d", total, 2*n)
	}
	// Keys 0..6 absorbed the duplicate stream: n/7-ish extra counts each.
	if got := lookup(0)[0].count; got != 1+(n+6)/7 {
		t.Errorf("key 0 count = %d, want %d", got, 1+(n+6)/7)
	}
}

func TestAggTableAbsorb(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCountStar}, {Kind: AggSum}}
	a, b := newGroupTable(1, 4, aggs), newGroupTable(1, 4, aggs)
	fill := func(tab *groupTable, mod int) {
		for i := 0; i < 10; i++ {
			key := []uint64{uint64(i % mod)}
			accs := tab.group(hashWords(key), key, int32(i))
			accs[0].count++
			accs[1].sum += float64(i)
		}
	}
	fill(a, 4)
	fill(b, 5)
	a.absorb(b)
	if a.keys.len() != 5 {
		t.Fatalf("merged groups = %d, want 5", a.keys.len())
	}
	var count int64
	var sum float64
	for g := range a.reps {
		count += a.accs(g)[0].count
		sum += a.accs(g)[1].sum
	}
	if count != 20 || sum != 90 {
		t.Errorf("merged totals = (%d, %g), want (20, 90)", count, sum)
	}
	// Groups a already held keep a's representative; the one only b held
	// (key 4, opened by b's tuple 4) arrives with b's.
	if a.reps[4] != 4 || a.keys.key(4)[0] != 4 {
		t.Errorf("absorbed group = key %d, representative %d; want 4, 4", a.keys.key(4)[0], a.reps[4])
	}
}

func TestMergeAccs(t *testing.T) {
	aggs := []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggCountDistinct, Cols: make([]ColRef, 1)},
		{Kind: AggSum},
		{Kind: AggAvg},
		{Kind: AggMin},
		{Kind: AggMax},
	}
	dst, src := newAccs(aggs), newAccs(aggs)
	dst[0].count = 3
	src[0].count = 4
	dst[1].distinct.insert(1, []uint64{1})
	src[1].distinct.insert(1, []uint64{1})
	src[1].distinct.insert(1, []uint64{2}) // colliding hash
	dst[2].sum = 1.5
	src[2].sum = 2.5
	dst[3].sum, dst[3].count = 10, 2
	src[3].sum, src[3].count = 20, 3
	dst[4].min, dst[4].max, dst[4].seen = types.Int(5), types.Int(5), true
	src[4].min, src[4].max, src[4].seen = types.Int(3), types.Int(9), true
	// dst[5] never saw a value; src[5] did — the merge must adopt it.
	src[5].min, src[5].max, src[5].seen = types.Int(7), types.Int(7), true

	mergeAccs(dst, src, aggs)
	if dst[0].count != 7 {
		t.Errorf("count = %d, want 7", dst[0].count)
	}
	if dst[1].distinct.len() != 2 {
		t.Errorf("distinct = %d, want 2", dst[1].distinct.len())
	}
	if dst[2].sum != 4 {
		t.Errorf("sum = %g, want 4", dst[2].sum)
	}
	if dst[3].sum != 30 || dst[3].count != 5 {
		t.Errorf("avg state = (%g, %d), want (30, 5)", dst[3].sum, dst[3].count)
	}
	if !dst[4].seen || dst[4].min.I != 3 || dst[4].max.I != 9 {
		t.Errorf("min/max = (%v, %v), want (3, 9)", dst[4].min, dst[4].max)
	}
	if !dst[5].seen || dst[5].min.I != 7 || dst[5].max.I != 7 {
		t.Errorf("unseen dst must adopt src: (%v, %v)", dst[5].min, dst[5].max)
	}
}

// TestSortRowsMixedKinds pins down the cross-kind ordering: datums of
// different, non-comparable kinds order by kind instead of panicking in
// Datum.Compare, numerics of different kinds still compare by value, and
// the order is deterministic across shuffles.
func TestSortRowsMixedKinds(t *testing.T) {
	mk := func() [][]types.Datum {
		return [][]types.Datum{
			{types.Str("b"), types.Int(1)},
			{types.Int(2), types.Int(2)},
			{types.Float(1.5), types.Int(3)},
			{types.Str("a"), types.Int(4)},
			{types.Int(1), types.Int(5)},
		}
	}
	a, b := mk(), mk()
	// Reverse b before sorting: both orders must converge.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	sortRows(a)
	sortRows(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sortRows not deterministic:\n%v\n%v", a, b)
	}
	// Numerics (int and float mixed) precede strings, ordered by value.
	wantFirst := []int64{5, 3, 2} // values 1, 1.5, 2
	for i, id := range wantFirst {
		if a[i][1].I != id {
			t.Fatalf("row %d = %v, want second cell %d (full order %v)", i, a[i], id, a)
		}
	}
	if a[3][0].S != "a" || a[4][0].S != "b" {
		t.Errorf("string rows out of order: %v", a)
	}
}
