package bytecard

import (
	"sync"
	"testing"

	"bytecard/internal/sqlparse"
)

// Serving-tier race stress: eight goroutines hammer the three shared
// mutable surfaces of one System at once — the estimator (Estimate with
// its inference caches), the plan cache (plan, replay, flush), and the
// per-model circuit breakers (trip, probe, recover, with the cache
// flushes Enable triggers) — under `go test -race`. The point is not the
// answers (parity tests cover those) but that no interleaving of lock
// acquisition, atomic counters, and cache invalidation races: exactly the
// surface the locksafe/atomicfield analyzers reason about statically, and
// what this test checks dynamically.
func TestConcurrentServingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	sys, err := Open(Options{Dataset: "imdb", Scale: 0.1, Seed: 7, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := fastpathQueries["imdb"]
	breakerKeys := []string{"bn:title", "factorjoin"}

	const iters = 60
	start := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}

	// Three estimator hammers share the inference caches and pooled
	// scratch; breaker trips from the goroutines below force mid-stream
	// fallbacks and cache flushes under them.
	for g := 0; g < 3; g++ {
		g := g
		worker(func(i int) {
			sql := queries[(g+i)%len(queries)]
			if _, err := sys.Estimate(sql, EstimateOpts{}); err != nil {
				t.Errorf("Estimate(%q): %v", sql, err)
			}
		})
	}

	// Two planner hammers mix cold misses, warm hits, and flushes on the
	// shared template plan cache.
	for g := 0; g < 2; g++ {
		g := g
		worker(func(i int) {
			sql := queries[(g+i)%len(queries)]
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Errorf("parse %q: %v", sql, err)
				return
			}
			q, err := sys.Engine.Analyze(stmt)
			if err != nil {
				t.Errorf("analyze %q: %v", sql, err)
				return
			}
			if _, err := sys.Engine.Plan(q); err != nil {
				t.Errorf("plan %q: %v", sql, err)
				return
			}
			if i%7 == g {
				sys.Engine.PlanCache.Flush()
			}
		})
	}

	// Two breaker hammers trip and recover model keys the estimators are
	// using; Enable's reset also flushes the inference caches, racing the
	// estimate path's reads.
	for g := 0; g < 2; g++ {
		g := g
		worker(func(i int) {
			key := breakerKeys[(g+i)%len(breakerKeys)]
			for n := 0; n < 4; n++ {
				sys.Infer.RecordFailure(key)
			}
			_ = sys.Infer.Admin().State(key)
			_ = sys.Infer.Allow(key)
			sys.Infer.RecordSuccess(key)
			sys.Infer.Admin().Enable(key)
		})
	}

	// One observer hammers the metrics snapshot, which reads every atomic
	// counter the other seven goroutines are writing.
	worker(func(i int) {
		_ = sys.Metrics()
	})

	close(start)
	wg.Wait()

	// The system must still serve once the storm passes.
	for _, key := range breakerKeys {
		sys.Infer.Admin().Enable(key)
	}
	if _, err := sys.Estimate(queries[0], EstimateOpts{}); err != nil {
		t.Fatalf("post-stress estimate: %v", err)
	}
}
