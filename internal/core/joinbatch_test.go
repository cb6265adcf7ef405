package core_test

import (
	"math"
	"sync/atomic"
	"testing"

	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/obs"
)

// callCounter is a fault hook that injects nothing and counts the guarded
// calls of one model key — the number of times the model actually ran.
type callCounter struct {
	key   string
	calls atomic.Int64
}

func (c *callCounter) Before(key string) {
	if key == c.key {
		c.calls.Add(1)
	}
}
func (c *callCounter) Transform(_ string, v float64) float64 { return v }

// statsPipeline trains a small STATS system: a snowflake schema whose fact
// tables carry two join keys each, so multi-table plans use key-tree
// conditionals and non-leaf subtree messages.
func statsPipeline(t *testing.T) (*core.InferenceEngine, *core.Estimator, *engine.Engine) {
	t.Helper()
	ds, err := datagen.ByName("stats", datagen.Config{Scale: 0.02, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	infer, est, exec, _ := pipelineFor(t, "stats", ds)
	return infer, est, exec
}

const sixTableGroupBy = "SELECT u.reputation, COUNT(*) FROM users u, posts p, comments c, votes v, badges b, postHistory ph " +
	"WHERE p.owner_user_id = u.id AND c.post_id = p.id AND v.post_id = p.id AND b.user_id = u.id AND ph.post_id = p.id " +
	"AND p.score >= 1 GROUP BY u.reputation"

// hubLastGroupBy is sixTableGroupBy with both hubs (posts, users) listed
// after their satellites, so the DP's first subsets mention tables in an
// order that is not a prefix of the query's.
const hubLastGroupBy = "SELECT u.reputation, COUNT(*) FROM comments c, votes v, badges b, postHistory ph, users u, posts p " +
	"WHERE p.owner_user_id = u.id AND c.post_id = p.id AND v.post_id = p.id AND b.user_id = u.id AND ph.post_id = p.id " +
	"AND p.score >= 1 GROUP BY u.reputation"

// TestPlanSharesOneGraph checks a whole DP is sized on one compiled graph
// wherever the query lists its hubs: the traced plan fetches each joined
// (table, column) bucket vector exactly once — a second universe would
// fetch its tables' vectors again — and every subset's estimate is what a
// cold sequential EstimateJoin returns.
func TestPlanSharesOneGraph(t *testing.T) {
	infer, est, exec := statsPipeline(t)
	// Serial, so the count is exact: racing workers may each fetch a vector
	// before the first one publishes it.
	exec.Parallelism = 1
	for _, sql := range []string{sixTableGroupBy, hubLastGroupBy} {
		q := analyzed(t, exec, sql)
		joined := map[[2]string]bool{}
		for _, j := range q.Joins {
			joined[[2]string{j.LeftTab, j.LeftCol}] = true
			joined[[2]string{j.RightTab, j.RightCol}] = true
		}
		infer.FlushCaches()
		tr := obs.NewTrace()
		p, err := exec.PlanWith(q, est.View(tr))
		if err != nil {
			t.Fatal(err)
		}
		vecs := 0
		for _, s := range tr.Spans() {
			if s.Op == obs.OpVector {
				vecs++
			}
		}
		if vecs != len(joined) {
			t.Errorf("%s\nplan fetched %d bucket vectors for %d joined columns", sql, vecs, len(joined))
		}
		infer.FlushCaches()
		if cold := est.EstimateJoin(q.Tables, q.Joins); math.Float64bits(cold) != math.Float64bits(p.EstFinalRows) {
			t.Errorf("%s\nplanned full join %v, cold sequential %v", sql, p.EstFinalRows, cold)
		}
	}
	if est.Fallbacks() != 0 {
		t.Errorf("%d fallbacks", est.Fallbacks())
	}
}

// TestGroupNDVReusesPlannedJoin checks the group-NDV cap no longer re-runs
// inference: the DP sized the full join, so EstimateGroupNDV — inside Plan
// and again afterwards — is answered from the subset memo, with the value
// a cold estimator computes.
func TestGroupNDVReusesPlannedJoin(t *testing.T) {
	infer, est, exec := statsPipeline(t)
	counter := &callCounter{key: "factorjoin"}
	est.Guard.SetHook(counter)
	q := analyzed(t, exec, sixTableGroupBy)
	p, err := exec.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fallbacks() != 0 {
		t.Fatalf("planning fell back %d times", est.Fallbacks())
	}
	// Every connected subset of the snowflake is one model call; the
	// aggregation's cap on the full join must not be another.
	planned := counter.calls.Load()
	if planned == 0 || int(planned) != est.CacheLen() {
		t.Fatalf("%d FactorJoin calls for %d memoized subsets, want one call per subset", planned, est.CacheLen())
	}
	ndv := est.EstimateGroupNDV(q)
	full := est.EstimateJoin(q.Tables, q.Joins)
	if got := counter.calls.Load(); got != planned {
		t.Errorf("EstimateGroupNDV and EstimateJoin after Plan ran FactorJoin %d more times, want 0", got-planned)
	}
	if full != p.EstFinalRows {
		t.Errorf("memoized full join %v differs from the plan's %v", full, p.EstFinalRows)
	}
	// A cold memo computes the same numbers.
	infer.FlushCaches()
	if cold := est.EstimateGroupNDV(q); cold != ndv {
		t.Errorf("cold group NDV %v, memoized %v", cold, ndv)
	}
	if counter.calls.Load() == planned {
		t.Error("a flushed memo answered without running the model")
	}
}

// TestModelChurnDropsMemoizedSubsets checks the invalidation path is
// unchanged: a disable, an enable and a model load each drop every
// memoized subset, counted as invalidations of the "joinvec" cache, and
// the next estimate runs the model again. (The RBX key is the one toggled:
// join estimates do not depend on it, so planning memoizes subsets in
// every state.)
func TestModelChurnDropsMemoizedSubsets(t *testing.T) {
	infer, est, exec := statsPipeline(t)
	counter := &callCounter{key: "factorjoin"}
	est.Guard.SetHook(counter)
	q := analyzed(t, exec, sixTableGroupBy)
	churn := []struct {
		name string
		do   func()
	}{
		{"disable", func() { infer.Admin().Disable("rbx") }},
		{"enable", func() { infer.Admin().Enable("rbx") }},
		{"load", func() {
			data, err := infer.Models().FactorJoin().Encode()
			if err != nil {
				t.Fatal(err)
			}
			next := core.Artifact{Name: "stats/factorjoin", Kind: core.KindFactorJoin, Timestamp: infer.Admin().State("factorjoin").Timestamp.Add(1), Data: data}
			if err := infer.LoadModel(next); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, step := range churn {
		if _, err := exec.Plan(q); err != nil {
			t.Fatal(err)
		}
		resident := est.CacheLen()
		if resident == 0 {
			t.Fatalf("%s: planning memoized nothing", step.name)
		}
		before := infer.CacheStats()["joinvec"].Invalidations
		step.do()
		if est.CacheLen() != 0 {
			t.Errorf("%s left %d memoized subsets resident", step.name, est.CacheLen())
		}
		if got := infer.CacheStats()["joinvec"].Invalidations - before; got != int64(resident) {
			t.Errorf("%s counted %d joinvec invalidations, want %d", step.name, got, resident)
		}
		ran := counter.calls.Load()
		est.EstimateJoin(q.Tables, q.Joins)
		if counter.calls.Load() != ran+1 {
			t.Errorf("after %s the full join ran the model %d times, want 1", step.name, counter.calls.Load()-ran)
		}
	}
}

// TestBatchMatchesSequentialCalls checks item results do not depend on
// batch composition: a batch mixing subsets of one query with a reordered
// copy of the full join (which cannot share the first items' compiled
// graph) returns, element for element, what cold sequential EstimateJoin
// calls return.
func TestBatchMatchesSequentialCalls(t *testing.T) {
	infer, est, exec := statsPipeline(t)
	q := analyzed(t, exec, sixTableGroupBy)
	reversed := make([]engine.JoinCond, len(q.Joins))
	for i, j := range q.Joins {
		reversed[len(q.Joins)-1-i] = j
	}
	items := []engine.JoinBatchItem{
		{Tables: q.Tables[:2], Conds: q.Joins[:1]},
		{Tables: q.Tables, Conds: q.Joins},
		{Tables: q.Tables, Conds: reversed},
		{Tables: q.Tables[:3], Conds: q.Joins[:2]},
	}
	got := est.EstimateJoinBatch(items, 4)
	for k, it := range items {
		infer.FlushCaches()
		want := est.EstimateJoin(it.Tables, it.Conds)
		if math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Errorf("item %d: batch %v, sequential %v", k, got[k], want)
		}
	}
	if est.Fallbacks() != 0 {
		t.Errorf("%d fallbacks", est.Fallbacks())
	}
	// A malformed wider item (one binding, two instances) falls back on its
	// own and does not decide how the well-formed narrower one is read.
	twin := *q.Tables[1]
	items = []engine.JoinBatchItem{
		{Tables: q.Tables[:2], Conds: q.Joins[:1]},
		{Tables: []*engine.QueryTable{q.Tables[0], q.Tables[1], &twin}, Conds: q.Joins[:1]},
	}
	infer.FlushCaches()
	got = est.EstimateJoinBatch(items, 1)
	for k, it := range items {
		infer.FlushCaches()
		if want := est.EstimateJoin(it.Tables, it.Conds); math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Errorf("malformed batch item %d: batch %v, sequential %v", k, got[k], want)
		}
	}
	if est.Fallbacks() != 2 {
		t.Errorf("%d fallbacks, want the malformed item's two", est.Fallbacks())
	}
}

// TestWarmPlanAllocs gates the planner/estimator miss path: a 6-table
// GROUP BY plan with pools and model-resident conditionals warm but the
// subset memo cold (every subset runs inference), hubs listed first and
// hubs listed last. Each measures 286 allocations (295 while each BN
// lookup copied the table's contexts, 301 before one BN pass served all of
// a table's join columns); the per-subset string-keyed graphs this
// replaced spent 2,139 on the hub-first plan.
func TestWarmPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are only meaningful without -race")
	}
	infer, _, exec := statsPipeline(t)
	for _, sql := range []string{sixTableGroupBy, hubLastGroupBy} {
		q := analyzed(t, exec, sql)
		plan := func() {
			infer.FlushCaches()
			if _, err := exec.Plan(q); err != nil {
				t.Fatal(err)
			}
		}
		plan()
		allocs := testing.AllocsPerRun(50, plan)
		t.Logf("6-table plan, cold memo: %.0f allocs", allocs)
		if allocs > 450 {
			t.Errorf("6-table plan allocates %.0f times, want <= 450\n%s", allocs, sql)
		}
	}
}
