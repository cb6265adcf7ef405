package engine

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/expr"
	"bytecard/internal/sqlparse"
)

// hashCardEstimator answers every join-size request with a deterministic
// pseudo-random value derived from the subset's sorted bindings, so any
// enumeration-order or batching bug shows up as a changed plan.
type hashCardEstimator struct {
	joinCalls  atomic.Int64
	batchCalls atomic.Int64
}

func (h *hashCardEstimator) Name() string                       { return "hash" }
func (h *hashCardEstimator) EstimateFilter(*QueryTable) float64 { return 1000 }
func (h *hashCardEstimator) EstimateConj(*QueryTable, []expr.Pred) float64 {
	return 0.5
}
func (h *hashCardEstimator) EstimateGroupNDV(*Query) float64 { return 10 }

func (h *hashCardEstimator) estimate(tables []*QueryTable) float64 {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Binding
	}
	sort.Strings(names)
	f := fnv.New64a()
	f.Write([]byte(strings.Join(names, ",")))
	return float64(1 + f.Sum64()%1_000_000)
}

func (h *hashCardEstimator) EstimateJoin(tables []*QueryTable, joins []JoinCond) float64 {
	h.joinCalls.Add(1)
	return h.estimate(tables)
}

// batchHashEstimator adds a concurrent EstimateJoinBatch over the same
// per-subset function.
type batchHashEstimator struct{ hashCardEstimator }

func (h *batchHashEstimator) EstimateJoinBatch(items []JoinBatchItem, parallelism int) []float64 {
	h.batchCalls.Add(1)
	out := make([]float64, len(items))
	var wg sync.WaitGroup
	var cursor atomic.Int64
	if parallelism > len(items) {
		parallelism = len(items)
	}
	if parallelism < 1 {
		parallelism = 1
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(items) {
					return
				}
				out[k] = h.estimate(items[k].Tables)
			}
		}()
	}
	wg.Wait()
	return out
}

// noBatch hides an estimator's EstimateJoinBatch method, forcing the
// planner down the sequential path.
type noBatch struct{ CardEstimator }

func planJoinQuery(t *testing.T, e *Engine, sql string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var imdbJoinQueries = []string{
	"SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id",
	"SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk WHERE ci.movie_id = t.id AND mk.movie_id = t.id",
	"SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk, movie_info mi WHERE ci.movie_id = t.id AND mk.movie_id = t.id AND mi.movie_id = t.id AND t.production_year >= 1990",
	"SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk, movie_info mi, movie_companies mc, movie_info_idx mii " +
		"WHERE ci.movie_id = t.id AND mk.movie_id = t.id AND mi.movie_id = t.id AND mc.movie_id = t.id AND mii.movie_id = t.id",
	// n=10 via alias self-joins: every fact table twice around title.
	"SELECT COUNT(*) FROM title t, cast_info c1, cast_info c2, movie_keyword k1, movie_keyword k2, movie_info i1, movie_info i2, movie_companies m1, movie_companies m2, movie_info_idx x1 " +
		"WHERE c1.movie_id = t.id AND c2.movie_id = t.id AND k1.movie_id = t.id AND k2.movie_id = t.id AND i1.movie_id = t.id AND i2.movie_id = t.id AND m1.movie_id = t.id AND m2.movie_id = t.id AND x1.movie_id = t.id",
}

// TestBatchedPlanningMatchesSequential is the ISSUE's parity gate: the
// batched parallel DP must produce byte-identical JoinOrder, JoinEstRows,
// and EstFinalRows to the sequential path.
func TestBatchedPlanningMatchesSequential(t *testing.T) {
	ds, err := datagen.ByName("imdb", datagen.Config{Scale: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range imdbJoinQueries {
		batched := &batchHashEstimator{}
		eb := New(ds.DB, ds.Schema, batched)
		eb.Parallelism = 4
		pb := planJoinQuery(t, eb, sql)

		sequential := &hashCardEstimator{}
		es := New(ds.DB, ds.Schema, noBatch{sequential})
		es.Parallelism = 4
		ps := planJoinQuery(t, es, sql)

		if len(pb.JoinOrder) > 2 && batched.batchCalls.Load() == 0 {
			t.Errorf("%s: batch estimator never invoked", sql)
		}
		if sequential.joinCalls.Load() == 0 {
			t.Errorf("%s: sequential estimator never invoked", sql)
		}
		if len(pb.JoinOrder) != len(ps.JoinOrder) {
			t.Fatalf("%s: order lengths differ: %v vs %v", sql, pb.JoinOrder, ps.JoinOrder)
		}
		for i := range pb.JoinOrder {
			if pb.JoinOrder[i] != ps.JoinOrder[i] {
				t.Fatalf("%s: JoinOrder differs: %v vs %v", sql, pb.JoinOrder, ps.JoinOrder)
			}
		}
		if len(pb.JoinEstRows) != len(ps.JoinEstRows) {
			t.Fatalf("%s: JoinEstRows lengths differ", sql)
		}
		for i := range pb.JoinEstRows {
			if pb.JoinEstRows[i] != ps.JoinEstRows[i] {
				t.Fatalf("%s: JoinEstRows[%d] = %v vs %v", sql, i, pb.JoinEstRows[i], ps.JoinEstRows[i])
			}
		}
		if pb.EstFinalRows != ps.EstFinalRows {
			t.Fatalf("%s: EstFinalRows %v vs %v", sql, pb.EstFinalRows, ps.EstFinalRows)
		}
	}
}

// TestJoinDPEstimateCount guards the subset-enumeration satellite: the DP
// must only estimate reachable connected subsets — for a 2-table join
// exactly one EstimateJoin call, never anything near the 2^n frontier.
func TestJoinDPEstimateCount(t *testing.T) {
	ds, err := datagen.ByName("imdb", datagen.Config{Scale: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql      string
		maxCalls int64
	}{
		// 2 tables: one subset (the pair) to estimate.
		{imdbJoinQueries[0], 1},
		// Star with 6 tables: every connected subset contains the hub, so
		// there are 2^5−1 = 31 multi-table connected subsets.
		{imdbJoinQueries[3], 31},
	}
	for _, tc := range cases {
		est := &hashCardEstimator{}
		e := New(ds.DB, ds.Schema, noBatch{est})
		planJoinQuery(t, e, tc.sql)
		if got := est.joinCalls.Load(); got > tc.maxCalls {
			t.Errorf("%s: %d EstimateJoin calls, want <= %d", tc.sql, got, tc.maxCalls)
		}
	}
}

// statsJoinSQL joins the first n of ten STATS table instances: users and
// posts as hubs, the fact tables around them, and two alias self-joins —
// a snowflake, so connected subsets are not all hub-centred.
func statsJoinSQL(n int) string {
	from := []string{"users u", "posts p", "comments c", "votes v", "badges b", "postHistory ph", "postLinks pl", "tags t", "comments c2", "votes v2"}
	where := []string{"", "p.owner_user_id = u.id", "c.post_id = p.id", "v.post_id = p.id", "b.user_id = u.id", "ph.post_id = p.id", "pl.post_id = p.id", "t.excerpt_post_id = p.id", "c2.user_id = u.id", "v2.user_id = u.id"}
	return "SELECT COUNT(*) FROM " + strings.Join(from[:n], ", ") + " WHERE " + strings.Join(where[1:n], " AND ")
}

// constCardEstimator sizes every join the same, so every DP comparison is
// a tie and only the tie-breaking rule decides the plan.
type constCardEstimator struct{ hashCardEstimator }

func (c *constCardEstimator) EstimateJoin([]*QueryTable, []JoinCond) float64 { return 1000 }

// referenceJoinOrder is the join-order DP as it was before subsets were
// enumerated up front: map-keyed, rank by rank, copying the winning order
// on every improvement. The planner must reproduce its plans exactly,
// including which of several equal-cost orders wins.
func referenceJoinOrder(q *Query, est CardEstimator) ([]int, []float64) {
	n := len(q.Tables)
	bindingIdx := map[string]int{}
	for i, t := range q.Tables {
		bindingIdx[t.Binding] = i
	}
	connected := make([]uint32, n)
	for _, j := range q.Joins {
		a, b := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
		connected[a] |= 1 << b
		connected[b] |= 1 << a
	}
	extensions := func(m uint32) uint32 {
		var reach uint32
		for j := 0; j < n; j++ {
			if m&(1<<j) != 0 {
				reach |= connected[j]
			}
		}
		return reach &^ m
	}
	card := map[uint32]float64{}
	subsetCard := func(mask uint32) float64 {
		if c, ok := card[mask]; ok {
			return c
		}
		var tabs []*QueryTable
		var conds []JoinCond
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				tabs = append(tabs, q.Tables[i])
			}
		}
		for _, j := range q.Joins {
			if mask&(1<<bindingIdx[j.LeftTab]) != 0 && mask&(1<<bindingIdx[j.RightTab]) != 0 {
				conds = append(conds, j)
			}
		}
		c := est.EstimateJoin(tabs, conds)
		if c < 1 || c != c {
			c = 1
		}
		card[mask] = c
		return c
	}
	type dpEntry struct {
		cost  float64
		order []int
	}
	dp := map[uint32]dpEntry{}
	var frontier []uint32
	for i := 0; i < n; i++ {
		dp[1<<i] = dpEntry{order: []int{i}}
		frontier = append(frontier, 1<<i)
	}
	for rank := 1; rank < n && len(frontier) > 0; rank++ {
		seen := map[uint32]bool{}
		var next []uint32
		for _, m := range frontier {
			ext := extensions(m)
			for i := 0; i < n; i++ {
				if nm := m | 1<<i; ext&(1<<i) != 0 && !seen[nm] {
					seen[nm] = true
					next = append(next, nm)
				}
			}
		}
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		for _, m := range frontier {
			base := dp[m]
			ext := extensions(m)
			for i := 0; i < n; i++ {
				if ext&(1<<i) == 0 {
					continue
				}
				nm := m | 1<<i
				cost := base.cost + subsetCard(nm)
				if cur, ok := dp[nm]; !ok || cost < cur.cost {
					dp[nm] = dpEntry{cost: cost, order: append(append([]int(nil), base.order...), i)}
				}
			}
		}
		frontier = next
	}
	best := dp[uint32(1<<n)-1]
	var rows []float64
	prefix := uint32(1) << best.order[0]
	for _, idx := range best.order[1:] {
		prefix |= 1 << idx
		rows = append(rows, subsetCard(prefix))
	}
	return best.order, rows
}

// TestOneBatchPerPlan pins the planner's estimator contract for joins of
// 2 to 10 tables: a batch-capable estimator sees exactly one
// EstimateJoinBatch per Plan and no EstimateJoin at all; the plan equals
// the sequential path's and the reference DP's byte for byte — under a
// hash-valued estimator (any enumeration slip changes the plan) and under
// a constant one (every comparison a tie, so the lowest base mask must
// win).
func TestOneBatchPerPlan(t *testing.T) {
	ds, err := datagen.ByName("stats", datagen.Config{Scale: 0.02, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	samePlan := func(t *testing.T, what string, p *Plan, order []int, rows []float64) {
		t.Helper()
		if len(p.JoinOrder) != len(order) || len(p.JoinEstRows) != len(rows) {
			t.Fatalf("%s: plan shape %v/%v, want %v/%v", what, p.JoinOrder, p.JoinEstRows, order, rows)
		}
		for i := range order {
			if p.JoinOrder[i] != order[i] {
				t.Fatalf("%s: JoinOrder %v, want %v", what, p.JoinOrder, order)
			}
		}
		for i := range rows {
			if p.JoinEstRows[i] != rows[i] {
				t.Fatalf("%s: JoinEstRows %v, want %v", what, p.JoinEstRows, rows)
			}
		}
		if p.EstFinalRows != rows[len(rows)-1] {
			t.Fatalf("%s: EstFinalRows %v, want %v", what, p.EstFinalRows, rows[len(rows)-1])
		}
	}
	for n := 2; n <= 10; n++ {
		sql := statsJoinSQL(n)
		batched := &batchHashEstimator{}
		eb := New(ds.DB, ds.Schema, batched)
		eb.Parallelism = 4
		pb := planJoinQuery(t, eb, sql)
		if got := batched.batchCalls.Load(); got != 1 {
			t.Errorf("n=%d: %d EstimateJoinBatch calls per Plan, want exactly 1", n, got)
		}
		if got := batched.joinCalls.Load(); got != 0 {
			t.Errorf("n=%d: %d EstimateJoin calls beside the batch, want 0", n, got)
		}
		sequential := &hashCardEstimator{}
		ps := planJoinQuery(t, New(ds.DB, ds.Schema, noBatch{sequential}), sql)
		order, rows := referenceJoinOrder(pb.Query, &hashCardEstimator{})
		samePlan(t, sql+" (batched)", pb, order, rows)
		samePlan(t, sql+" (sequential)", ps, order, rows)

		ties := planJoinQuery(t, New(ds.DB, ds.Schema, noBatch{&constCardEstimator{}}), sql)
		order, rows = referenceJoinOrder(ties.Query, &constCardEstimator{})
		samePlan(t, sql+" (all ties)", ties, order, rows)
	}
}
