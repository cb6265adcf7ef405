package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/sqlparse"
	"bytecard/internal/types"
	"bytecard/internal/workload"
)

// reuseList is one workload's query list over its dataset.
type reuseList struct {
	name    string
	ds      *datagen.Dataset
	queries []string
}

// reuseLists returns the STATS-Hybrid list (2–8-table joins, grouped and
// not) and the TimeSeries-Probes list (windowed COUNT and COUNT DISTINCT
// probes), each over a small dataset of its own.
func reuseLists(t *testing.T) []reuseList {
	t.Helper()
	stats := datagen.STATS(datagen.Config{Scale: 0.01, Seed: 41})
	sw, err := workload.STATSHybrid(stats, 5)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := datagen.ByName("timeseries", datagen.Config{Scale: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := workload.TimeSeriesProbes(ts, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	sqls := func(w workload.Workload) []string {
		out := make([]string, len(w.Queries))
		for i, q := range w.Queries {
			out[i] = q.SQL
		}
		return out
	}
	return []reuseList{{"stats", stats, sqls(sw)}, {"timeseries", ts, sqls(tw)}}
}

// naiveBudget bounds the oracle's nested-loop work per query (see
// naiveWork); queries past it are checked against the first run instead.
const naiveBudget = 500_000

// naiveWork bounds RunNaive's row visits on sql: it enumerates the filtered
// join of each FROM prefix and, per prefix tuple, visits every row of the
// next table.
func naiveWork(t *testing.T, e *engine.Engine, sql string) int64 {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int32, len(q.Tables))
	for i, qt := range q.Tables {
		for r := 0; r < qt.Table.NumRows(); r++ {
			if qt.Filter == nil || qt.Filter.Eval(func(_, col string) types.Datum { return qt.Table.ColByName(col).Value(r) }) {
				rows[i] = append(rows[i], int32(r))
			}
		}
	}
	work := int64(q.Tables[0].Table.NumRows())
	for k := 1; k < len(q.Tables); k++ {
		in := map[string]bool{}
		for _, qt := range q.Tables[:k] {
			in[qt.Binding] = true
		}
		var joins []engine.JoinCond
		for _, j := range q.Joins {
			if in[j.LeftTab] && in[j.RightTab] {
				joins = append(joins, j)
			}
		}
		prefix, err := engine.JoinSize(q.Tables[:k], rows[:k], joins)
		if err != nil {
			return naiveBudget + 1
		}
		work += prefix * int64(q.Tables[k].Table.NumRows())
		if work > naiveBudget {
			return work
		}
	}
	return work
}

// TestScratchReuseMatchesNaive runs the STATS-Hybrid and TimeSeries-Probes
// lists twice through one engine, at 1, 2 and 4 workers, after dirtying
// the scratch pool with the other list's queries. Test builds poison every
// released vector, so a site that reads working memory it did not write,
// or a result that aliases a released vector, changes an answer. Every
// result must be byte-identical to RunNaive's where the oracle's nested
// loops stay within naiveBudget, and to the first one-worker run of the
// query everywhere.
func TestScratchReuseMatchesNaive(t *testing.T) {
	lists := reuseLists(t)
	for li, l := range lists {
		oracle := engine.New(l.ds.DB, l.ds.Schema, engine.HeuristicEstimator{})
		want := make([]*engine.Result, len(l.queries))
		checked := 0
		for i, sql := range l.queries {
			if naiveWork(t, oracle, sql) > naiveBudget {
				continue
			}
			res, err := oracle.RunNaive(sql)
			if err != nil {
				t.Fatalf("%s: naive %s: %v", l.name, sql, err)
			}
			want[i] = res
			checked++
		}
		t.Logf("%s: %d queries, %d checked against the oracle", l.name, len(l.queries), checked)
		other := lists[1-li]
		for _, workers := range []int{1, 2, 4} {
			dirty := engine.New(other.ds.DB, other.ds.Schema, engine.HeuristicEstimator{})
			dirty.Parallelism = workers
			for _, sql := range other.queries[:40] {
				if _, err := dirty.Run(sql); err != nil {
					t.Fatalf("%s: %s: %v", other.name, sql, err)
				}
			}
			e := engine.New(l.ds.DB, l.ds.Schema, engine.HeuristicEstimator{})
			e.Parallelism = workers
			for pass := 0; pass < 2; pass++ {
				for i, sql := range l.queries {
					got, err := e.Run(sql)
					if err != nil {
						t.Fatalf("%s: %s: %v", l.name, sql, err)
					}
					if want[i] == nil {
						want[i] = got
					}
					if !reflect.DeepEqual(got.Rows, want[i].Rows) {
						t.Errorf("%s, %d workers, pass %d: %s\ngot  %v\nwant %v", l.name, workers, pass, sql, got.Rows, want[i].Rows)
					}
				}
			}
		}
	}
}

// TestConcurrentQueriesSharePool runs both lists from eight goroutines at
// once, every engine drawing working memory from the one scratch pool; each
// result must equal the query's result run alone. Under -race this is the
// pool's concurrency test.
func TestConcurrentQueriesSharePool(t *testing.T) {
	lists := reuseLists(t)
	type job struct {
		e    *engine.Engine
		sql  string
		want [][]types.Datum
	}
	var jobs []job
	for _, l := range lists {
		for _, workers := range []int{1, 2} {
			e := engine.New(l.ds.DB, l.ds.Schema, engine.HeuristicEstimator{})
			e.Parallelism = workers
			for _, sql := range l.queries[:30] {
				res, err := e.Run(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				jobs = append(jobs, job{e, sql, res.Rows})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k*7+g*13)%len(jobs)]
				res, err := j.e.Run(j.sql)
				if err != nil {
					t.Errorf("%s: %v", j.sql, err)
					return
				}
				if !reflect.DeepEqual(res.Rows, j.want) {
					t.Errorf("goroutine %d: %s diverges from its solo run", g, j.sql)
				}
			}
		}()
	}
	wg.Wait()
}
