package core

import "bytecard/internal/lru"

// vecCacheLimit bounds the join-vector cache: the optimizer's dynamic
// programming re-requests the same (table instance, key column) vector
// once per enumerated subset, so a few thousand entries cover even wide
// joins with room for concurrent queries.
const vecCacheLimit = 8192

// vecEntryOverhead approximates the fixed per-entry footprint (map cell,
// LRU element, entry header) for the byte gauge.
const vecEntryOverhead = 96

// subsetKey is a canonical DP-subset identity (JoinBatchItem.Key); its
// cached value is one sanitized join-size estimate rather than a bucket
// vector. A distinct type keeps string subset keys from ever colliding
// with vecKey entries in the shared map.
type subsetKey string

// vecValue is a bucket vector (vecKey entries) or a sanitized estimate
// (subsetKey entries).
type vecValue struct {
	vec    []float64
	scalar float64
}

// vecCache memoizes two kinds of derived inference state under one
// entry-bounded LRU: BN-conditioned FactorJoin bucket vectors keyed by
// (table instance, key column), and whole sanitized join-size estimates
// keyed by canonical subset identity (JoinBatchItem.Key — this is what lets
// the batched planner skip FactorJoin entirely for subsets it has sized
// before, across ranks and across Plan calls). Shared by every view of one
// Estimator.
//
// Everything in here is derived from loaded model state, so the cache is
// registered as DerivedCache "joinvec" by NewEstimator. Entries carry no
// table list — vector entries key on *engine.QueryTable instances
// (per-query, not per-physical-table) and subset keys are opaque strings —
// so any table invalidation conservatively drops them all; vectors
// re-derive from the freshly loaded models on the next plan.
type vecCache struct {
	*lru.Cache[any, vecValue]
}

func newVecCache(limit int) vecCache {
	return vecCache{lru.NewEntries[any, vecValue](limit)}
}

func (c vecCache) get(key vecKey) ([]float64, bool) {
	v, ok := c.Get(key)
	return v.vec, ok
}

func (c vecCache) put(key vecKey, vec []float64) {
	c.Put(key, vecValue{vec: vec}, vecEntryOverhead+int64(8*len(vec)), nil)
}

func (c vecCache) getSubset(key string) (float64, bool) {
	v, ok := c.Get(subsetKey(key))
	return v.scalar, ok
}

func (c vecCache) putSubset(key string, v float64) {
	c.Put(subsetKey(key), vecValue{scalar: v}, vecEntryOverhead+int64(len(key)), nil)
}
