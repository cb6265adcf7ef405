package bytecard

import (
	"reflect"
	"testing"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/sqlparse"
)

// Plan-cache system tests: cached plans must be byte-identical to the
// fresh join-order DP with the real ByteCard estimator across the
// JOB-Hybrid and STATS-Hybrid workloads, cached decisions must execute
// correctly with each sibling query's own constants, and model churn
// (retrain + refresh) must invalidate affected templates.

// analyzeFresh parses and analyzes sql into a fresh Query.
func analyzeFresh(t *testing.T, e *engine.Engine, sql string) *engine.Query {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return q
}

// samePlan compares every decision field of two plans.
func samePlan(a, b *engine.Plan) bool {
	if !reflect.DeepEqual(a.JoinOrder, b.JoinOrder) ||
		!reflect.DeepEqual(a.JoinEstRows, b.JoinEstRows) ||
		a.EstFinalRows != b.EstFinalRows || a.AggCapacity != b.AggCapacity ||
		len(a.Scans) != len(b.Scans) {
		return false
	}
	for i := range a.Scans {
		if a.Scans[i].Strategy != b.Scans[i].Strategy ||
			a.Scans[i].EstRows != b.Scans[i].EstRows ||
			!reflect.DeepEqual(a.Scans[i].ColOrder, b.Scans[i].ColOrder) {
			return false
		}
	}
	return true
}

// TestPlanCacheParityWorkloads is the PR's parity gate at system level:
// for every workload query, the fresh cache-free DP, the cold-miss plan,
// and the warm-hit replay must be byte-identical under the real ByteCard
// estimator.
func TestPlanCacheParityWorkloads(t *testing.T) {
	for _, dataset := range []string{"imdb", "stats"} {
		sys := fastpathSystem(t, dataset)
		w, err := sys.Workload(21)
		if err != nil {
			t.Fatal(err)
		}
		queries := w.Queries
		if len(queries) > 40 {
			queries = queries[:40]
		}
		for _, wq := range queries {
			sys.Engine.PlanCache.Flush()
			// Ground truth: the same engine and estimator, cache bypassed.
			fresh, err := sys.Engine.PlanWith(analyzeFresh(t, sys.Engine, wq.SQL), sys.Engine.Est)
			if err != nil {
				t.Fatalf("%s/%s: %v", dataset, wq.SQL, err)
			}
			cold, err := sys.Engine.Plan(analyzeFresh(t, sys.Engine, wq.SQL))
			if err != nil {
				t.Fatalf("%s/%s: %v", dataset, wq.SQL, err)
			}
			warm, err := sys.Engine.Plan(analyzeFresh(t, sys.Engine, wq.SQL))
			if err != nil {
				t.Fatalf("%s/%s: %v", dataset, wq.SQL, err)
			}
			if !samePlan(fresh, cold) {
				t.Errorf("%s/%s: cold-miss plan diverges from cache-free plan", dataset, wq.SQL)
			}
			if !samePlan(fresh, warm) {
				t.Errorf("%s/%s: warm-hit plan diverges from cache-free plan", dataset, wq.SQL)
			}
		}
	}
}

// TestPlanCacheExecutionResults runs workload queries through a
// plan-cached engine twice — the second pass executing replayed template
// decisions — and requires results identical to a cache-free view of the
// same engine. No flushes between queries: templates accumulate and
// cross-query reuse (including sibling rebinding) is exercised for real.
func TestPlanCacheExecutionResults(t *testing.T) {
	sys := fastpathSystem(t, "imdb")
	sys.Engine.PlanCache.Flush()
	cacheOff := *sys.Engine
	cacheOff.PlanCache = nil
	w, err := sys.Workload(33)
	if err != nil {
		t.Fatal(err)
	}
	queries := w.Queries
	if len(queries) > 15 {
		queries = queries[:15]
	}
	for pass := 0; pass < 2; pass++ {
		for _, wq := range queries {
			want, err := cacheOff.Run(wq.SQL)
			if err != nil {
				t.Fatalf("cache-off %s: %v", wq.SQL, err)
			}
			got, err := sys.Engine.Run(wq.SQL)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, wq.SQL, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("pass %d %s: cached execution returned different rows", pass, wq.SQL)
			}
		}
	}
	if s := sys.Engine.PlanCache.Stats(); s.Hits == 0 {
		t.Error("execution sweep never hit the plan cache")
	}
}

// TestModelChurnInvalidatesPlanCache checks the registry wiring end to
// end: a retrain shipped through RefreshModels drops exactly the cached
// templates that touch the retrained table, and the admin flush empties
// everything.
func TestModelChurnInvalidatesPlanCache(t *testing.T) {
	sys, err := Open(Options{
		Dataset: "toy", Scale: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	factOnly := "SELECT COUNT(*) FROM fact WHERE val < 50"
	joined := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3"
	for _, sql := range []string{factOnly, joined} {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.Engine.PlanCache.Len(); n != 2 {
		t.Fatalf("plan cache holds %d templates, want 2", n)
	}

	// Retrain dim with a future timestamp so the refresh installs it.
	if _, err := sys.Forge.TrainTableAt("dim", time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RefreshModels(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Engine.PlanCache.Len(); n != 1 {
		t.Errorf("after retraining dim the plan cache holds %d templates, want 1 (fact-only survivor)", n)
	}
	if s := sys.Engine.PlanCache.Stats(); s.Invalidations == 0 {
		t.Error("retrain recorded no plan-cache invalidations")
	}
	// The fact-only template must still hit; the joined template replans.
	hitsBefore := sys.Engine.PlanCache.Stats().Hits
	if _, err := sys.Run(factOnly); err != nil {
		t.Fatal(err)
	}
	if s := sys.Engine.PlanCache.Stats(); s.Hits != hitsBefore+1 {
		t.Errorf("surviving template did not hit (hits %d -> %d)", hitsBefore, s.Hits)
	}
	if _, err := sys.Run(joined); err != nil {
		t.Fatal(err)
	}

	// Disabling a model flushes everything (estimates may embed it).
	sys.Infer.Admin().Disable("bn:fact")
	if n := sys.Engine.PlanCache.Len(); n != 0 {
		t.Errorf("disable left %d cached templates", n)
	}
	sys.Infer.Admin().Enable("bn:fact")

	// Admin stats/flush route through the same registry.
	for _, sql := range []string{factOnly, joined} {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	stats := sys.Infer.Admin().CacheStats()
	if stats["plan"].Entries != 2 {
		t.Errorf("admin stats report %d plan entries, want 2", stats["plan"].Entries)
	}
	if _, ok := stats["joinvec"]; !ok {
		t.Error("admin stats missing the joinvec cache")
	}
	if n := sys.Infer.Admin().FlushCaches(); n == 0 {
		t.Error("admin flush dropped nothing")
	}
	if n := sys.Engine.PlanCache.Len(); n != 0 {
		t.Errorf("admin flush left %d cached templates", n)
	}
}
