package core

import (
	"testing"

	"bytecard/internal/engine"
	"bytecard/internal/obs"
)

// TestVecCacheKeyKinds checks the two entry kinds share one bound without
// colliding: a subset key equal to a vector key's column is its own entry,
// each getter returns its own kind's value, and the coldest entry of either
// kind is the one evicted. (LRU mechanics live in internal/lru's suite.)
func TestVecCacheKeyKinds(t *testing.T) {
	c := newVecCache(2)
	k := vecKey{table: &engine.QueryTable{}, col: "a"}
	c.put(k, []float64{1, 2})
	c.putSubset("a", 42)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2 (vector and subset keys must not collide)", c.Len())
	}
	if v, ok := c.get(k); !ok || len(v) != 2 || v[1] != 2 {
		t.Errorf("get = (%v, %v), want the bucket vector", v, ok)
	}
	if v, ok := c.getSubset("a"); !ok || v != 42 {
		t.Errorf("getSubset = (%v, %v), want 42", v, ok)
	}
	c.putSubset("b", 7) // evicts the vector: it was touched before subset "a"
	if _, ok := c.get(k); ok {
		t.Error("coldest entry (the vector) survived a subset insert past the bound")
	}
	if _, ok := c.getSubset("a"); !ok {
		t.Error("recently used subset entry was evicted")
	}
	// Entries carry no table list, so any table invalidation drops them all.
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
	c.putSubset("x", 1)
	c.putSubset("y", 2) // evicts x
	c.getSubset("x")    // miss
	c.getSubset("y")    // hit
	c.getSubset("y")    // hit
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
