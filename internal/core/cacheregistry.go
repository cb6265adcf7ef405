package core

import (
	"slices"

	"bytecard/internal/obs"
)

// DerivedCache is the invalidation contract for any cache whose contents
// are derived from loaded model state — the join-vector/subset cache, the
// engine's plan cache, and whatever future tiers appear. The Inference
// Engine is the single authority on model churn (loads, enables,
// disables), so registered caches are invalidated from here and nowhere
// else: a model swap reaches every derived tier in one place instead of
// each consumer wiring its own hooks.
type DerivedCache interface {
	// InvalidateTables drops entries derived from the named physical
	// tables, returning how many were dropped. Implementations that cannot
	// scope by table drop everything (documented per cache).
	InvalidateTables(tables ...string) int
	// Flush drops every entry, returning how many were resident.
	Flush() int
	// Stats returns the cache's uniform counter snapshot.
	Stats() obs.CacheSnapshot
}

// namedCache is one registered derived cache.
type namedCache struct {
	name string
	c    DerivedCache
}

// RegisterCache attaches a named derived cache to the registry's
// invalidation fan-out. Registration order is preserved for deterministic
// iteration; re-registering a name replaces the previous cache (the name
// keeps its slot). Safe for concurrent use with loads and estimation.
func (e *InferenceEngine) RegisterCache(name string, c DerivedCache) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	for i := range e.caches {
		if e.caches[i].name == name {
			e.caches[i].c = c
			return
		}
	}
	e.caches = append(e.caches, namedCache{name, c})
}

// derivedCaches snapshots the registered caches in registration order.
func (e *InferenceEngine) derivedCaches() []namedCache {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return slices.Clone(e.caches)
}

// invalidateCacheTables fans a table-scoped invalidation across every
// registered cache. Called outside e.mu: caches take their own locks, and
// a cache callback must never be able to deadlock against the registry.
func (e *InferenceEngine) invalidateCacheTables(tables ...string) {
	for _, nc := range e.derivedCaches() {
		nc.c.InvalidateTables(tables...)
	}
}

// FlushCaches drops every entry of every registered cache (operator
// escape hatch, also the conservative reaction to whole-model churn),
// returning the total number of entries dropped.
func (e *InferenceEngine) FlushCaches() int {
	n := 0
	for _, nc := range e.derivedCaches() {
		n += nc.c.Flush()
	}
	return n
}

// CacheStats snapshots every registered cache's counters by name.
func (e *InferenceEngine) CacheStats() map[string]obs.CacheSnapshot {
	out := map[string]obs.CacheSnapshot{}
	for _, nc := range e.derivedCaches() {
		out[nc.name] = nc.c.Stats()
	}
	return out
}
