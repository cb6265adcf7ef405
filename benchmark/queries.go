package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/storage"
	"bytecard/internal/types"
	"bytecard/internal/workload"
)

// query is one generated op input. distinct marks GROUP BY / COUNT DISTINCT
// queries, whose estimate is a distinct-key count, not a row count.
type query struct {
	sql      string
	distinct bool
}

// hybridShape is the paper's Table 5 description of a hybrid workload.
type hybridShape struct {
	queries              int
	minTables, maxTables int
	aggFraction          float64
	minKeys, maxKeys     int
}

var (
	// statsHybrid: 200 queries, 2–8 joined tables, 30 % GROUP BY on 1–2 keys.
	statsHybrid = hybridShape{queries: 200, minTables: 2, maxTables: 8, aggFraction: 0.3, minKeys: 1, maxKeys: 2}
	// statsAdhoc is the same shape, 2000 queries: a template working set far
	// above what the plan cache would hold.
	statsAdhoc = hybridShape{queries: 2000, minTables: 2, maxTables: 8, aggFraction: 0.3, minKeys: 1, maxKeys: 2}
	// aeolusOnline: 200 queries, 2–5 joined tables, half GROUP BY on 2–4 keys.
	aeolusOnline = hybridShape{queries: 200, minTables: 2, maxTables: 5, aggFraction: 0.5, minKeys: 2, maxKeys: 4}
)

// hybridQueries generates distinct select–project–join queries of the given
// shape over ds's join graph: a random connected table set, one to four
// filter predicates concentrated on a focus table with literals sampled from
// live rows, and for the GROUP BY share one to maxKeys group keys, COUNT(*)
// and one aggregate.
//
// It follows workload.Generate but is the benchmark's own code:
// workload.Generate grows its table set by ranging over a map, so the same
// seed yields different query lists in different processes, and a benchmark's
// inputs must repeat.
func hybridQueries(ds *datagen.Dataset, shape hybridShape, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	tables := ds.DB.TableNames()
	type edge struct{ a, ca, b, cb string }
	adj := map[string][]edge{}
	joinCols := map[catalog.ColumnRef]bool{}
	for _, p := range ds.Schema.JoinPatterns() {
		e := edge{a: p.Left.Table, ca: p.Left.Column, b: p.Right.Table, cb: p.Right.Column}
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], e)
		joinCols[p.Left], joinCols[p.Right] = true, true
	}
	// Usable columns per table: keys make degenerate filters and group keys.
	type column struct {
		name string
		kind types.Kind
		ndv  int
	}
	predCols, groupCols, aggCols := map[string][]column{}, map[string][]column{}, map[string][]column{}
	for _, name := range tables {
		t := ds.DB.Table(name)
		for i := 0; i < t.NumCols(); i++ {
			col := t.Col(i)
			if !col.Kind().Scalar() || col.Name() == "id" || joinCols[catalog.ColumnRef{Table: name, Column: col.Name()}] {
				continue
			}
			c := column{name: col.Name(), kind: col.Kind(), ndv: sampledNDV(t, col.Name())}
			predCols[name] = append(predCols[name], c)
			if c.ndv >= 2 {
				groupCols[name] = append(groupCols[name], c)
			}
			if c.kind != types.KindString {
				aggCols[name] = append(aggCols[name], c)
			}
		}
	}

	subtree := func(size int) (set []string, conds []edge) {
		set = []string{tables[rng.Intn(len(tables))]}
		in := map[string]bool{set[0]: true}
		for len(set) < size {
			var candidates []edge // edges adding exactly one table, in set order
			for _, t := range set {
				for _, e := range adj[t] {
					if in[e.a] != in[e.b] {
						candidates = append(candidates, e)
					}
				}
			}
			if len(candidates) == 0 {
				return nil, nil
			}
			e := candidates[rng.Intn(len(candidates))]
			added := e.b
			if in[e.b] {
				added = e.a
			}
			in[added] = true
			set = append(set, added)
			conds = append(conds, e)
		}
		return set, conds
	}
	predicate := func(table string) (string, bool) {
		cols := predCols[table]
		if len(cols) == 0 {
			return "", false
		}
		c := cols[rng.Intn(len(cols))]
		if rng.Float64() < 0.4 { // analytical filters favour time-like columns
			for _, tc := range cols {
				if strings.Contains(tc.name, "year") || strings.Contains(tc.name, "date") {
					c = tc
					break
				}
			}
		}
		t := ds.DB.Table(table)
		val := t.ColByName(c.name).Value(rng.Intn(t.NumRows()))
		op := "="
		switch {
		case c.kind == types.KindString:
		case c.ndv <= 20:
			op = []string{"=", "=", "<=", ">="}[rng.Intn(4)]
		default:
			op = []string{"<", "<=", ">", ">=", "="}[rng.Intn(5)]
		}
		return fmt.Sprintf("%s.%s %s %s", table, c.name, op, val), true
	}
	qualified := func(set []string, cols map[string][]column) []string {
		var pool []string
		for _, t := range set {
			for _, c := range cols[t] {
				pool = append(pool, t+"."+c.name)
			}
		}
		return pool
	}

	var out []query
	seen := map[string]bool{}
	for len(out) < shape.queries {
		set, conds := subtree(shape.minTables + rng.Intn(shape.maxTables-shape.minTables+1))
		if set == nil {
			continue
		}
		var where []string
		for _, e := range conds {
			where = append(where, fmt.Sprintf("%s.%s = %s.%s", e.a, e.ca, e.b, e.cb))
		}
		want, added := 1+rng.Intn(4), 0
		focus := set[rng.Intn(len(set))]
		for try := 0; try < want*2 && added < want; try++ {
			table := focus
			if added >= 2 {
				table = set[rng.Intn(len(set))]
			}
			if p, ok := predicate(table); ok {
				where = append(where, p)
				added++
			}
		}
		q := query{sql: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", strings.Join(set, ", "), strings.Join(where, " AND "))}
		if rng.Float64() < shape.aggFraction {
			pool := qualified(set, groupCols)
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			keys := pool[:min(len(pool), shape.minKeys+rng.Intn(shape.maxKeys-shape.minKeys+1))]
			if len(keys) == 0 {
				continue
			}
			sort.Strings(keys)
			sel := append(append([]string(nil), keys...), "COUNT(*)")
			if pool := qualified(set, aggCols); len(pool) > 0 {
				col := pool[rng.Intn(len(pool))]
				sel = append(sel, []string{"AVG", "SUM", "MIN", "MAX"}[rng.Intn(4)]+"("+col+")")
			}
			q = query{distinct: true, sql: fmt.Sprintf("SELECT %s FROM %s WHERE %s GROUP BY %s",
				strings.Join(sel, ", "), strings.Join(set, ", "), strings.Join(where, " AND "), strings.Join(keys, ", "))}
		}
		if !seen[q.sql] {
			seen[q.sql] = true
			out = append(out, q)
		}
	}
	return out
}

// sampledNDV counts a column's distinct values over about 400 evenly spaced
// rows: enough to tell a category from a measure.
func sampledNDV(t *storage.Table, col string) int {
	c := t.ColByName(col)
	step := max(1, t.NumRows()/400)
	seen := map[uint64]bool{}
	for i := 0; i < t.NumRows(); i += step {
		seen[c.Value(i).Hash64()] = true
	}
	return len(seen)
}

// timeSeriesProbes is workload.TimeSeriesProbes (deterministic as it stands):
// narrow time-range counts, tag-equality probes and tag-cardinality probes.
func timeSeriesProbes(ds *datagen.Dataset, n int, seed int64) ([]query, error) {
	w, err := workload.TimeSeriesProbes(ds, n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]query, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = query{sql: q.SQL, distinct: q.Kind == workload.KindNDV}
	}
	return out, nil
}
