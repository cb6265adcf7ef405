package core

import (
	"testing"

	"bytecard/internal/obs"
)

// TestVecCacheHoldsSubsetEstimates checks the memo's contract: one scalar
// per subset key, coldest entry evicted past the bound, and — entries carry
// no table list — any table invalidation drops them all. (LRU mechanics
// live in internal/lru's suite.)
func TestVecCacheHoldsSubsetEstimates(t *testing.T) {
	c := newVecCache(2)
	c.put("a", 42)
	c.put("b", 7)
	if v, ok := c.Get("a"); !ok || v != 42 {
		t.Errorf("Get(a) = (%v, %v), want 42", v, ok)
	}
	c.put("c", 1) // evicts b: a was touched after it
	if _, ok := c.Get("b"); ok {
		t.Error("coldest entry survived an insert past the bound")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry was evicted")
	}
	if n := c.InvalidateTables("some_table"); n != 2 {
		t.Errorf("InvalidateTables dropped %d, want 2", n)
	}
}

// TestEstimatorSnapshotReadsJoinVecCounters checks each probe is counted
// once, in the cache's own block, and that the estimator digest's cache
// fields are filled from it.
func TestEstimatorSnapshotReadsJoinVecCounters(t *testing.T) {
	c := newVecCache(1)
	m := obs.NewEstimatorMetrics()
	m.JoinVec = c.Metrics()
	c.put("x", 1)
	c.put("y", 2) // evicts x
	c.Get("x")    // miss
	c.Get("y")    // hit
	c.Get("y")    // hit
	s := m.Snapshot()
	if s.CacheHits != 2 || s.CacheMisses != 1 || s.CacheEvictions != 1 {
		t.Errorf("estimator digest hits/misses/evictions = %d/%d/%d, want 2/1/1",
			s.CacheHits, s.CacheMisses, s.CacheEvictions)
	}
	if cs := c.Stats(); cs.Hits != s.CacheHits || cs.Misses != s.CacheMisses || cs.Evictions != s.CacheEvictions {
		t.Errorf("cache stats %+v disagree with the estimator digest", cs)
	}
	if z := obs.NewEstimatorMetrics().Snapshot(); z.CacheHits != 0 || z.CacheMisses != 0 {
		t.Errorf("a view without a cache block reports %d/%d", z.CacheHits, z.CacheMisses)
	}
}
