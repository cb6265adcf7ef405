package engine

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// tsEngine builds an engine over the timeseries dataset — the
// append-ordered workload the pushdown scan contract was built for.
func tsEngine(t *testing.T, scale float64) (*Engine, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.ByName("timeseries", datagen.Config{Scale: scale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.DB, ds.Schema, HeuristicEstimator{})
	return e, ds
}

// tsWindow returns the ts values at two fractions of the readings stream,
// bounding a populated window.
func tsWindow(ds *datagen.Dataset, loFrac, hiFrac float64) (int64, int64) {
	c := ds.DB.Table("readings").ColByName("ts")
	n := ds.DB.Table("readings").NumRows()
	return c.Value(int(loFrac * float64(n-1))).I, c.Value(int(hiFrac * float64(n-1))).I
}

// pushdownParityQueries covers every shape the contract routes differently:
// zone-skippable windows, equality on strings, disjunctions (an OR, an AND
// of ORs, and an OR on a table a join scans SIP-first), grouped
// aggregation, projection, LIMIT, and joins.
func pushdownParityQueries(t *testing.T, ds *datagen.Dataset) []string {
	t.Helper()
	lo, hi := tsWindow(ds, 0.40, 0.42)
	lo2, hi2 := tsWindow(ds, 0.85, 0.86)
	host := ds.DB.Table("readings").ColByName("host").Value(7).S
	return []string{
		"SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi),
		"SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo2) + " AND readings.ts <= " + itoa(hi2) + " AND readings.metric = 2",
		"SELECT COUNT(*) FROM readings WHERE readings.host = '" + host + "'",
		"SELECT COUNT(*) FROM readings WHERE readings.metric = 1 OR readings.metric = 4",
		"SELECT COUNT(*) FROM readings WHERE (readings.metric = 1 OR readings.metric = 4) AND (readings.ts <= " + itoa(lo) + " OR readings.ts >= " + itoa(hi2) + " OR readings.host = '" + host + "')",
		sipFirstOrQuery,
		"SELECT readings.metric, COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi) + " GROUP BY readings.metric",
		"SELECT host FROM readings WHERE readings.ts >= " + itoa(lo2) + " AND readings.ts <= " + itoa(hi2) + " LIMIT 40",
		"SELECT COUNT(*) FROM readings r, devices d WHERE r.device_id = d.id AND d.fleet = 1 AND r.ts >= " + itoa(lo) + " AND r.ts <= " + itoa(hi),
		"SELECT COUNT(DISTINCT readings.host) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi),
	}
}

// sipFirstOrQuery filters readings, which the join scans SIP-first behind
// the fleet's devices, with an OR.
const sipFirstOrQuery = "SELECT COUNT(*), SUM(r.metric) FROM devices d, readings r WHERE r.device_id = d.id AND d.fleet = 1 AND (r.metric = 2 OR r.value > 50)"

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// sameResult compares two results byte for byte.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Columns, b.Columns) && reflect.DeepEqual(a.Rows, b.Rows)
}

// TestPushdownOnOffParity is the contract's correctness gate: with the
// knob on and off, at 1, 2 and 4 workers, with the plan cache off, cold and
// warm, every query shape must produce one result byte for byte, and that
// result must be the oracle's.
func TestPushdownOnOffParity(t *testing.T) {
	e, ds := tsEngine(t, 0.05)
	for _, sql := range pushdownParityQueries(t, ds) {
		oracle, err := e.RunNaive(sql)
		if err != nil {
			t.Fatal(err)
		}
		var first *Result
		for _, workers := range []int{1, 2, 4} {
			for _, pushdown := range []int{1, -1} {
				e.Parallelism, e.Pushdown = workers, pushdown
				for _, cache := range []string{"off", "cold", "warm"} {
					switch cache {
					case "off":
						e.PlanCache = nil
					case "cold":
						e.PlanCache = NewPlanCache(0)
					}
					res, err := e.Run(sql)
					if err != nil {
						t.Fatalf("%s (pushdown %d, %d workers, cache %s): %v", sql, pushdown, workers, cache, err)
					}
					if first == nil {
						first = res
						if len(analyze(t, e, sql).Select) == 0 && !sameResult(res, oracle) { // the oracle only aggregates
							t.Errorf("%s: %v, the oracle %v", sql, res.Rows, oracle.Rows)
						}
					}
					if !sameResult(res, first) || res.Metrics.PlanCacheHit != (cache == "warm") {
						t.Errorf("%s (pushdown %d, %d workers, cache %s, hit %v): result diverges from pushdown on, one worker, cache off",
							sql, pushdown, workers, cache, res.Metrics.PlanCacheHit)
					}
					if got := res.Metrics.ReaderStrategy["r"]; sql == sipFirstOrQuery && !strings.HasPrefix(got, "sip+") {
						t.Errorf("%s: readings scanned as %q, want a SIP-first scan", sql, got)
					}
				}
			}
		}
	}
}

// TestPushdownWorkerParity asserts byte-identical results AND identical
// block-I/O accounting (read and skipped, total and per binding) at 1
// worker vs 2 and 4: pushdown decisions are block-local, so parallelism
// must not change what is charged.
func TestPushdownWorkerParity(t *testing.T) {
	e, ds := tsEngine(t, 0.05)
	e.Pushdown = 1
	for _, sql := range pushdownParityQueries(t, ds) {
		e.Parallelism = 1
		seq, err := e.Run(sql)
		if err != nil {
			t.Fatalf("%s (1 worker): %v", sql, err)
		}
		for _, workers := range []int{2, 4} {
			e.Parallelism = workers
			par, err := e.Run(sql)
			if err != nil {
				t.Fatalf("%s (%d workers): %v", sql, workers, err)
			}
			if !sameResult(seq, par) {
				t.Errorf("%s: %d-worker result diverges from sequential", sql, workers)
			}
			if sr, pr := seq.Metrics.IO.BlocksRead(), par.Metrics.IO.BlocksRead(); sr != pr {
				t.Errorf("%s: blocks read %d sequential vs %d at %d workers", sql, sr, pr, workers)
			}
			if ss, ps := seq.Metrics.IO.BlocksSkipped(), par.Metrics.IO.BlocksSkipped(); ss != ps {
				t.Errorf("%s: blocks skipped %d sequential vs %d at %d workers", sql, ss, ps, workers)
			}
			if !reflect.DeepEqual(seq.Metrics.ScanBlocks, par.Metrics.ScanBlocks) {
				t.Errorf("%s: per-scan block stats diverge at %d workers: %v vs %v",
					sql, workers, seq.Metrics.ScanBlocks, par.Metrics.ScanBlocks)
			}
		}
	}
}

// TestPushdownSkipsWindowBlocks pins the headline win: a narrow time
// window over the append-ordered readings stream must read a small
// fraction of the blocks the unpushed scan reads, skip the rest via zone
// maps, and record the skips in a scan_pushdown span.
func TestPushdownSkipsWindowBlocks(t *testing.T) {
	e, ds := tsEngine(t, 0.1)
	lo, hi := tsWindow(ds, 0.50, 0.51)
	sql := "SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi)

	e.Pushdown = 1
	tr := obs.NewTrace()
	on, err := e.RunTraced(sql, tr)
	if err != nil {
		t.Fatal(err)
	}
	e.Pushdown = -1
	off, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	onRead, offRead := on.Metrics.IO.BlocksRead(), off.Metrics.IO.BlocksRead()
	if onRead*3 > offRead {
		t.Errorf("narrow window: pushdown read %d blocks, off path %d (< 3x reduction)", onRead, offRead)
	}
	if on.Metrics.IO.BlocksSkipped() == 0 {
		t.Error("narrow window skipped no blocks")
	}
	var span *obs.Span
	for _, s := range tr.Spans() {
		if s.Op == obs.OpScanPushdown {
			span = &s
			break
		}
	}
	if span == nil {
		t.Fatal("no scan_pushdown span recorded")
	}
	if int64(span.Value) != on.Metrics.IO.BlocksSkipped() {
		t.Errorf("span skipped %v != metrics skipped %d", span.Value, on.Metrics.IO.BlocksSkipped())
	}
}

// TestProjectionAndLimit validates the projection/limit pushdown shape
// against a directly computed expectation, and that the limit actually
// stops the scan early (fewer blocks than the unlimited scan).
func TestProjectionAndLimit(t *testing.T) {
	db := buildWide(storage.BlockSize * 8)
	e := New(db, catalog.NewSchema(), HeuristicEstimator{})
	e.Pushdown = 1

	res, err := e.Run("SELECT s, v FROM wide WHERE t >= 20 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(res.Rows))
	}
	if !reflect.DeepEqual(res.Columns, []string{"s", "v"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Expected: first 10 matching rows in row order.
	tab := db.Table("wide")
	sCol, vCol, tCol := tab.ColByName("s"), tab.ColByName("v"), tab.ColByName("t")
	want := 0
	for i := 0; i < tab.NumRows() && want < 10; i++ {
		if tCol.Value(i).I >= 20 {
			if res.Rows[want][0] != sCol.Value(i) || res.Rows[want][1] != vCol.Value(i) {
				t.Fatalf("row %d = %v, want [%v %v]", want, res.Rows[want], sCol.Value(i), vCol.Value(i))
			}
			want++
		}
	}
	if want != 10 {
		t.Fatalf("only matched %d of 10 expected rows", want)
	}

	unlimited, err := e.Run("SELECT s, v FROM wide WHERE t >= 20")
	if err != nil {
		t.Fatal(err)
	}
	if lim, unlim := res.Metrics.IO.BlocksRead(), unlimited.Metrics.IO.BlocksRead(); lim >= unlim {
		t.Errorf("LIMIT read %d blocks, unlimited read %d — limit did not stop early", lim, unlim)
	}

	// Grouped aggregation with LIMIT truncates after the sorted output.
	full, err := e.Run("SELECT s, COUNT(*) FROM wide GROUP BY s")
	if err != nil {
		t.Fatal(err)
	}
	lim2, err := e.Run("SELECT s, COUNT(*) FROM wide GROUP BY s LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(lim2.Rows) != 2 || !reflect.DeepEqual(full.Rows[:2], lim2.Rows) {
		t.Errorf("grouped LIMIT 2 = %v, want prefix of %v", lim2.Rows, full.Rows)
	}
}

// TestWarmPlanTakesFlippedRoute: routing is not part of a plan. A cached
// template executed after a knob flip (Pushdown off, a ForceReader
// ablation, Pushdown back on) takes the route the knobs name at execution.
func TestWarmPlanTakesFlippedRoute(t *testing.T) {
	e, ds := tsEngine(t, 0.02)
	e.Pushdown = 1
	e.PlanCache = NewPlanCache(0)
	lo, hi := tsWindow(ds, 0.3, 0.4)
	sql := "SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi)
	if _, err := e.Run(sql); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pushdown int
		force    string
		pushed   bool
	}{{1, "", true}, {-1, "", false}, {1, "single-stage", false}, {1, "multi-stage", false}, {0, "", true}} {
		e.Pushdown, e.ForceReader = c.pushdown, c.force
		tr := obs.NewTrace()
		res, err := e.RunTraced(sql, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.PlanCacheHit {
			t.Fatalf("Pushdown %d, ForceReader %q: the plan was not a cache hit", c.pushdown, c.force)
		}
		spanned := false
		for _, s := range tr.Spans() {
			spanned = spanned || s.Op == obs.OpScanPushdown
		}
		if skipped := res.Metrics.IO.BlocksSkipped() > 0; spanned != c.pushed || skipped != c.pushed {
			t.Errorf("Pushdown %d, ForceReader %q: scan_pushdown span %v, blocks skipped %v; want pushed down %v",
				c.pushdown, c.force, spanned, skipped, c.pushed)
		}
	}
}

func analyze(t testing.TB, e *Engine, sql string) *Query {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestExplainPredictedVsActualBlocks: Explain predicts a pushed-down
// scan's block reads from zone maps; AnnotateExecution fills the executed
// count, and prediction must upper-bound reality.
func TestExplainPredictedVsActualBlocks(t *testing.T) {
	e, ds := tsEngine(t, 0.05)
	e.Pushdown = 1
	lo, hi := tsWindow(ds, 0.60, 0.62)
	sql := "SELECT COUNT(*) FROM readings WHERE readings.ts >= " + itoa(lo) + " AND readings.ts <= " + itoa(hi) + " AND readings.metric = 3"

	ex, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	var scan *ExplainNode
	for i := range ex.Nodes {
		if ex.Nodes[i].Kind == "scan" {
			scan = &ex.Nodes[i]
		}
	}
	if scan == nil || !scan.Pushdown {
		t.Fatalf("no pushdown scan node in %+v", ex.Nodes)
	}
	if scan.PredictedBlocks == 0 {
		t.Fatal("no block prediction for a constrained pushdown scan")
	}
	res, err := e.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex.AnnotateExecution(&res.Metrics)
	if scan.ActualBlocks == 0 {
		t.Fatal("AnnotateExecution left ActualBlocks empty")
	}
	if scan.ActualBlocks > scan.PredictedBlocks {
		t.Errorf("actual %d blocks exceeds zone-map prediction %d", scan.ActualBlocks, scan.PredictedBlocks)
	}
	if sb := res.Metrics.ScanBlocks["readings"]; scan.ActualBlocks != sb.Read {
		t.Errorf("annotated %d != metrics %d", scan.ActualBlocks, sb.Read)
	}
}

// windowEngine builds an engine over one table w of the given number of
// blocks: w.ts is the row id, so a ts window's zone maps keep exactly the
// blocks the window overlaps, and w.v cycles through 0..6.
func windowEngine(t testing.TB, blocks int) *Engine {
	t.Helper()
	b := storage.NewBuilder("w", []storage.ColumnSpec{
		{Name: "ts", Kind: types.KindInt64},
		{Name: "v", Kind: types.KindInt64},
	})
	for i := 0; i < blocks*storage.BlockSize; i++ {
		b.Append([]types.Datum{types.Int(int64(i)), types.Int(int64(i % 7))})
	}
	db := storage.NewDatabase()
	db.Add(b.Build())
	return New(db, catalog.NewSchema(), HeuristicEstimator{})
}

// blockWindow is the filter over w.ts selecting rows [lo, hi] of blocks
// first..last.
func blockWindow(first, last int) string {
	return "w.ts >= " + strconv.Itoa(first*storage.BlockSize+3) + " AND w.ts <= " + strconv.Itoa(last*storage.BlockSize+200)
}

// TestPushdownDispatchMatchesBlockScan pins prune-before-dispatch: windows
// keeping no block, one block, exactly MorselBlocks, one morsel more and
// many blocks, an Empty constraint and a LIMIT, at 1, 2 and 4 workers, must
// return the rows a single sequential storage.BlockScan returns and charge
// and skip exactly its blocks.
func TestPushdownDispatchMatchesBlockScan(t *testing.T) {
	const blocks = 40
	e := windowEngine(t, blocks)
	queries := []string{
		"SELECT w.ts FROM w WHERE w.ts >= " + strconv.Itoa(blocks*storage.BlockSize+5),
		"SELECT w.ts FROM w WHERE " + blockWindow(5, 5),
		"SELECT w.ts FROM w WHERE " + blockWindow(5, 5+MorselBlocks-1),
		"SELECT w.ts FROM w WHERE " + blockWindow(5, 5+MorselBlocks) + " AND w.v = 3",
		"SELECT w.ts FROM w WHERE " + blockWindow(2, 30) + " AND w.v = 3",
		"SELECT w.ts FROM w WHERE w.ts >= 10 AND w.ts <= 5",
		"SELECT w.ts FROM w WHERE " + blockWindow(3, 20) + " LIMIT 10",
		"SELECT w.ts FROM w WHERE (" + blockWindow(2, 4) + ") OR (" + blockWindow(20, 20+MorselBlocks) + " AND w.v = 3)",
		"SELECT w.ts FROM w WHERE (" + blockWindow(2, 4) + ") OR w.ts >= 10 AND w.ts <= 5 LIMIT 5000",
	}
	for _, sql := range queries {
		q := analyze(t, e, sql)
		p, err := e.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		f := storage.Compile(q.Tables[0].Table, q.Tables[0].Filter, p.Scans[0].ColOrder)
		readers := make([]*storage.Reader, len(f.Columns()))
		for i, c := range f.Columns() {
			readers[i] = c.NewReader(nil)
		}
		wantRows := storage.BlockScan(readers, storage.ScanOptions{Filter: f, Limit: q.Limit}, 0, blocks*storage.BlockSize, nil)
		var want ScanBlockStats
		for _, r := range readers {
			want.Read += r.BlocksCharged()
			want.Skipped += r.BlocksSkipped()
		}
		for _, workers := range []int{1, 2, 4} {
			e.Parallelism = workers
			res, err := e.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(wantRows) {
				t.Fatalf("%s, %d workers: %d rows, BlockScan keeps %d", sql, workers, len(res.Rows), len(wantRows))
			}
			for i, row := range res.Rows {
				if row[0].I != int64(wantRows[i]) {
					t.Fatalf("%s, %d workers: row %d is %d, BlockScan's is %d", sql, workers, i, row[0].I, wantRows[i])
				}
			}
			if got := res.Metrics.ScanBlocks["w"]; got != want {
				t.Errorf("%s, %d workers: blocks %+v, BlockScan's %+v", sql, workers, got, want)
			}
		}
	}
}

// TestWindowedScanAllocs is the dispatch allocation gate: a windowed
// COUNT(*) and COUNT(DISTINCT) at four workers allocate the same count on
// a table ten times larger, so nothing the executor allocates scales with
// the pruned blocks.
func TestWindowedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM w WHERE " + blockWindow(5, 9),
		"SELECT COUNT(DISTINCT w.v) FROM w WHERE " + blockWindow(5, 9),
	} {
		var allocs [2]float64
		for i, blocks := range []int{20, 200} {
			e := windowEngine(t, blocks)
			e.Parallelism = 4
			p, err := e.Plan(analyze(t, e, sql))
			if err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := e.Execute(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %.0f allocs at 20 blocks, %.0f at 200", sql, allocs[0], allocs[1])
		if allocs[1] != allocs[0] {
			t.Errorf("%s: allocations grow with the table: %.0f at 20 blocks, %.0f at 200", sql, allocs[0], allocs[1])
		}
	}
}

// TestWindowedDistinctBytesAllocs is the working-memory gate of a scan: on
// a warm scratch pool, the windowed COUNT(DISTINCT) allocates the same
// bytes per run over a narrow window and a wide one of the same table —
// the selection vector, the first-table compress, the distinct set and the
// dispatchers' chunk-indexed outputs all come from the pool. At one worker
// the windows are 2 and 128 blocks (64x the tuples). At four workers they
// are 8 and 128 blocks (16x): 8 blocks is the narrowest window whose scan
// and aggregation both run on four workers, so both runs pay the same
// per-worker set-up (goroutines, sibling readers), and past 128 blocks the
// vectors outgrow what a scratch retains.
func TestWindowedDistinctBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	e := windowEngine(t, 136)
	for _, c := range []struct{ workers, narrow int }{{1, 2}, {4, 8}} {
		e.Parallelism = c.workers
		var bytes [2]uint64
		for i, last := range []int{5 + c.narrow - 1, 132} {
			p, err := e.Plan(analyze(t, e, "SELECT COUNT(DISTINCT w.v) FROM w WHERE "+blockWindow(5, last)))
			if err != nil {
				t.Fatal(err)
			}
			bytes[i] = bytesPerRun(20, func() {
				if _, err := e.Execute(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("windowed COUNT(DISTINCT) at %d workers: %d bytes/run over %d blocks, %d over 128", c.workers, bytes[0], c.narrow, bytes[1])
		if bytes[1] != bytes[0] {
			t.Errorf("windowed COUNT(DISTINCT) bytes grow with the window at %d workers: %d over %d blocks, %d over 128", c.workers, bytes[0], c.narrow, bytes[1])
		}
	}
}
