package engine

import (
	"reflect"
	"strings"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/sqlparse"
)

func planCacheEngine(t *testing.T, est CardEstimator, cacheBytes int64) *Engine {
	t.Helper()
	ds, err := datagen.ByName("imdb", datagen.Config{Scale: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.DB, ds.Schema, est)
	e.Parallelism = 4
	e.PlanCache = NewPlanCache(cacheBytes)
	return e
}

// TestPlanCacheHitReplaysIdenticalPlan is the cache's core parity gate: a
// warm hit must replay exactly the plan the fresh DP would build — same
// scans, join order, estimates, and presizing — without invoking the
// estimator at all.
func TestPlanCacheHitReplaysIdenticalPlan(t *testing.T) {
	for _, sql := range imdbJoinQueries {
		est := &hashCardEstimator{}
		e := planCacheEngine(t, noBatch{est}, 0)

		cold := planJoinQuery(t, e, sql) // miss: plans fresh, publishes
		callsAfterCold := est.joinCalls.Load()
		warm := planJoinQuery(t, e, sql) // hit: replays decisions
		if got := est.joinCalls.Load(); got != callsAfterCold {
			t.Errorf("%s: cache hit still made %d estimator calls", sql, got-callsAfterCold)
		}

		// A cache-free engine view over the same estimator state is the
		// ground truth both plans must match.
		view := *e
		view.PlanCache = nil
		fresh := planJoinQuery(t, &view, sql)

		for name, p := range map[string]*Plan{"cold": cold, "warm": warm} {
			if !reflect.DeepEqual(p.Scans, fresh.Scans) {
				t.Errorf("%s: %s Scans diverge from fresh plan", sql, name)
			}
			if !reflect.DeepEqual(p.JoinOrder, fresh.JoinOrder) {
				t.Errorf("%s: %s JoinOrder = %v, fresh = %v", sql, name, p.JoinOrder, fresh.JoinOrder)
			}
			if !reflect.DeepEqual(p.JoinEstRows, fresh.JoinEstRows) {
				t.Errorf("%s: %s JoinEstRows = %v, fresh = %v", sql, name, p.JoinEstRows, fresh.JoinEstRows)
			}
			if p.EstFinalRows != fresh.EstFinalRows || p.AggCapacity != fresh.AggCapacity {
				t.Errorf("%s: %s final rows/capacity (%v, %d) vs fresh (%v, %d)",
					sql, name, p.EstFinalRows, p.AggCapacity, fresh.EstFinalRows, fresh.AggCapacity)
			}
		}
		s := e.PlanCache.Stats()
		if s.Hits != 1 || s.Misses != 1 {
			t.Errorf("%s: stats hits=%d misses=%d, want 1/1", sql, s.Hits, s.Misses)
		}
	}
}

// TestPlanCacheTemplateSiblings checks constants are stripped from the
// key: the same statement shape with different literals shares one entry,
// and the replayed plan carries the sibling's fresh Query (its constants)
// while reusing the template's decisions.
func TestPlanCacheTemplateSiblings(t *testing.T) {
	est := &hashCardEstimator{}
	e := planCacheEngine(t, noBatch{est}, 0)
	a := planJoinQuery(t, e, "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id AND t.production_year >= 1990")
	b := planJoinQuery(t, e, "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id AND t.production_year >= 2005")
	s := e.PlanCache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("template siblings did not share an entry: hits=%d misses=%d", s.Hits, s.Misses)
	}
	if !reflect.DeepEqual(a.JoinOrder, b.JoinOrder) || a.EstFinalRows != b.EstFinalRows {
		t.Errorf("sibling decisions diverge: %v/%v vs %v/%v", a.JoinOrder, a.EstFinalRows, b.JoinOrder, b.EstFinalRows)
	}
	if a.Query == b.Query {
		t.Error("plans share a Query — cached plans must bind the caller's fresh query")
	}
	if b.Query.Tables[0].Filter == nil {
		t.Error("sibling lost its own filter constants")
	}
	// Different structure must miss.
	planJoinQuery(t, e, "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id")
	if s := e.PlanCache.Stats(); s.Misses != 2 {
		t.Errorf("different template should miss: misses=%d", s.Misses)
	}
}

// TestPlanCacheInvalidateTables checks targeted invalidation: templates
// touching a retrained table drop, unrelated templates survive.
func TestPlanCacheInvalidateTables(t *testing.T) {
	e := planCacheEngine(t, noBatch{&hashCardEstimator{}}, 0)
	planJoinQuery(t, e, "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id")
	planJoinQuery(t, e, "SELECT COUNT(*) FROM movie_keyword mk, movie_info mi, title t2 WHERE mk.movie_id = t2.id AND mi.movie_id = t2.id")
	planJoinQuery(t, e, "SELECT COUNT(*) FROM movie_companies mc, movie_info_idx mii, title t3 WHERE mc.movie_id = t3.id AND mii.movie_id = t3.id")
	if n := e.PlanCache.Len(); n != 3 {
		t.Fatalf("cache holds %d templates, want 3", n)
	}
	if n := e.PlanCache.InvalidateTables("cast_info", "movie_keyword"); n != 2 {
		t.Errorf("InvalidateTables dropped %d, want 2", n)
	}
	if n := e.PlanCache.Len(); n != 1 {
		t.Errorf("cache holds %d templates after invalidation, want 1", n)
	}
	if n := e.PlanCache.InvalidateTables("absent_table"); n != 0 {
		t.Errorf("invalidating an untouched table dropped %d entries", n)
	}
	if n := e.PlanCache.Flush(); n != 1 {
		t.Errorf("Flush dropped %d, want 1", n)
	}
	s := e.PlanCache.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("flushed cache still reports entries=%d bytes=%d", s.Entries, s.Bytes)
	}
	if s.Invalidations != 3 {
		t.Errorf("invalidations=%d, want 3", s.Invalidations)
	}
}

// TestPlanCacheEvictionBounded checks the cache charges real template
// sizes against its byte budget: resident bytes never exceed the limit and
// cold templates evict. (Eviction order and oversized-entry refusal are
// covered by internal/lru's suite.)
func TestPlanCacheEvictionBounded(t *testing.T) {
	est := &hashCardEstimator{}
	e := planCacheEngine(t, noBatch{est}, 2048)
	for i := 0; i < 12; i++ {
		// Each i repeats the year predicate a different number of times —
		// distinct statement structure, so every query is its own template.
		sql := "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id" +
			strings.Repeat(" AND t.production_year >= 1990", i+1)
		planJoinQuery(t, e, sql)
	}
	s := e.PlanCache.Stats()
	if s.Misses != 12 {
		t.Fatalf("expected 12 distinct templates, got %d misses", s.Misses)
	}
	if s.Bytes > 2048 {
		t.Errorf("resident bytes %d exceed the 2048 limit", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Error("no evictions under a tight byte budget")
	}
	if s.Entries <= 0 {
		t.Error("eviction emptied the cache entirely")
	}
}

// TestPlanWithBypassesCache checks the EXPLAIN path neither reads nor
// publishes cache entries: substituted estimators must actually run, and
// their decisions must not leak to other callers.
func TestPlanWithBypassesCache(t *testing.T) {
	est := &hashCardEstimator{}
	e := planCacheEngine(t, noBatch{est}, 0)
	sql := imdbJoinQueries[1]
	planJoinQuery(t, e, sql) // publish the template
	probe := &hashCardEstimator{}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PlanWith(q, noBatch{probe}); err != nil {
		t.Fatal(err)
	}
	if probe.joinCalls.Load() == 0 {
		t.Error("PlanWith served the substituted estimator from the cache")
	}
	s := e.PlanCache.Stats()
	if s.Hits != 0 {
		t.Errorf("PlanWith hit the cache %d times", s.Hits)
	}
	if s.Misses != 1 {
		t.Errorf("PlanWith recorded a cache miss: misses=%d, want only Plan's 1", s.Misses)
	}
}

// TestPlanCacheHitAllocs gates the warm template-hit path on a 6-table
// join: template key, decision lookup and replay onto the caller's query,
// with no estimator call. It measures 36 allocations; 54 leaves the same
// half again of headroom as the planner's miss-path gate.
func TestPlanCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	e := planCacheEngine(t, noBatch{&hashCardEstimator{}}, 0)
	stmt, err := sqlparse.Parse(imdbJoinQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan := func() {
		if _, err := e.Plan(q); err != nil {
			t.Fatal(err)
		}
	}
	plan() // miss: publishes the template
	allocs := testing.AllocsPerRun(100, plan)
	if s := e.PlanCache.Stats(); s.Misses != 1 {
		t.Fatalf("measured plans missed the cache: misses=%d, want 1", s.Misses)
	}
	t.Logf("6-table plan, warm template hit: %.0f allocs", allocs)
	if allocs > 54 {
		t.Errorf("6-table template hit allocates %.0f times, want <= 54", allocs)
	}
}
