package core

import "bytecard/internal/lru"

// vecCacheLimit bounds the subset memo: a join-order DP publishes one entry
// per connected subset it sizes (a few dozen for a typical join), so a few
// thousand entries hold the recent working set of many concurrent queries.
const vecCacheLimit = 8192

// vecEntryOverhead approximates the fixed per-entry footprint (map cell,
// LRU element, entry header) for the byte gauge.
const vecEntryOverhead = 96

// vecCache memoizes whole sanitized join-size estimates by canonical subset
// identity (joinUniverse.key: model generation, bindings, physical tables,
// full filter text and join conditions) under one entry-bounded LRU — what
// lets a batch skip FactorJoin entirely for subsets sized before, within a
// query (the group-NDV cap re-asks for the full join the DP just sized) and
// across queries. Shared by every view of one Estimator.
//
// It holds nothing tied to one query's lifetime: the per (table instance,
// key column) bucket vectors the planner's DP re-reads live in the batch's
// compiled factorjoin.Graph and die with it, so this cache never pins a
// finished query's table graph.
//
// Everything in here is derived from loaded model state, so the cache is
// registered as DerivedCache "joinvec" by NewEstimator. Subset keys are
// opaque strings and entries carry no table list, so any table
// invalidation conservatively drops them all; estimates re-derive from the
// freshly loaded models on the next plan. The generation in the key keeps
// an older view from reading a newer one's entries; the epoch passed to put
// keeps an entry computed across an invalidation from outliving it.
type vecCache struct {
	*lru.Cache[string, float64]
}

func newVecCache(limit int) vecCache {
	return vecCache{lru.NewEntries[string, float64](limit)}
}

func (c vecCache) put(key string, v float64, epoch uint64) {
	c.Put(key, v, vecEntryOverhead+int64(len(key)), nil, epoch)
}
