package engine

import (
	"slices"

	"bytecard/internal/lru"
)

// DefaultPlanCacheBytes bounds the plan cache when no explicit budget is
// configured: a few thousand templates at typical decision sizes —
// warehouse workloads repeat a small set of templates with varying
// constants, so this covers the hot set with headroom.
const DefaultPlanCacheBytes = 4 << 20

// planCacheEntryOverhead approximates the fixed per-entry footprint (map
// cell, LRU element, entry and decision headers) for the byte gauge.
const planCacheEntryOverhead = 160

// scanDecision is one table's cached materialization decision.
type scanDecision struct {
	strategy string
	colOrder []string
	estRows  float64
}

// planDecisions is one query template's complete set of optimizer
// decisions — everything Plan computes that does not reference the
// analyzed Query's own structures. Applying them to a fresh Query of the
// same template rebuilds the Plan without a single estimator call; the
// fresh Query carries the new constants, so execution filters with the
// caller's actual values while strategy, column order, join order, and
// presizing replay the template's decisions (estimates included — reusing
// a sibling's estimates is the documented template-cache tradeoff).
type planDecisions struct {
	scans        []scanDecision
	joinOrder    []int
	joinEstRows  []float64
	estFinalRows float64
	aggCapacity  int
	// tables is the deduped physical-table list the decisions were
	// estimated against, for table-scoped invalidation.
	tables []string
	size   int64
}

// decisionsOf extracts the cacheable decisions from a freshly built plan.
func decisionsOf(p *Plan) *planDecisions {
	d := &planDecisions{
		scans:        make([]scanDecision, len(p.Scans)),
		joinOrder:    append([]int(nil), p.JoinOrder...),
		joinEstRows:  append([]float64(nil), p.JoinEstRows...),
		estFinalRows: p.EstFinalRows,
		aggCapacity:  p.AggCapacity,
	}
	size := int64(planCacheEntryOverhead)
	for i, sp := range p.Scans {
		d.scans[i] = scanDecision{
			strategy: sp.Strategy,
			colOrder: append([]string(nil), sp.ColOrder...),
			estRows:  sp.EstRows,
		}
		size += int64(len(sp.Strategy)) + 24
		for _, c := range sp.ColOrder {
			size += int64(len(c)) + 16
		}
	}
	for _, t := range p.Query.Tables {
		if !slices.Contains(d.tables, t.Name) {
			d.tables = append(d.tables, t.Name)
			size += int64(len(t.Name)) + 16
		}
	}
	size += int64(8*len(d.joinOrder) + 8*len(d.joinEstRows))
	d.size = size
	return d
}

// apply rebuilds a Plan for a fresh Query of the same template. Slices
// are copied so no two plans — and never the cache — share mutable
// backing arrays.
func (d *planDecisions) apply(q *Query) *Plan {
	p := &Plan{
		Query:        q,
		JoinOrder:    append([]int(nil), d.joinOrder...),
		JoinEstRows:  append([]float64(nil), d.joinEstRows...),
		EstFinalRows: d.estFinalRows,
		AggCapacity:  d.aggCapacity,
	}
	for i, sd := range d.scans {
		p.Scans = append(p.Scans, &ScanPlan{
			TableIdx: i,
			Strategy: sd.strategy,
			ColOrder: append([]string(nil), sd.colOrder...),
			EstRows:  sd.estRows,
		})
	}
	return p
}

// PlanCache memoizes optimizer decisions by normalized query template
// (sqlparse.Normalize — constants stripped), bounded by resident bytes
// with LRU eviction. A hit skips analysis-independent planning entirely:
// every estimator call, the join-order DP, and aggregation presizing.
// Entries hold decisions, not Plans, and are re-applied to each fresh
// Query, so cached templates execute with the caller's actual constants.
//
// The cache implements core's DerivedCache contract: the inference
// registry invalidates it on model load (table-scoped via the per-entry
// physical-table list) and flushes it on enable/disable, and a plan
// estimated across an invalidation is not published, so no plan ever
// replays decisions estimated by a replaced model. Safe for concurrent
// use.
type PlanCache struct {
	// The lru.Cache's Get, Epoch, Len, InvalidateTables, Flush and Stats
	// serve as is; Put takes decisions.
	*lru.Cache[string, *planDecisions]
}

// NewPlanCache creates a plan cache bounded to limit resident bytes
// (DefaultPlanCacheBytes when limit <= 0).
func NewPlanCache(limit int64) *PlanCache {
	if limit <= 0 {
		limit = DefaultPlanCacheBytes
	}
	return &PlanCache{lru.NewBytes[string, *planDecisions](limit)}
}

// Put publishes one template's decisions under their invalidation table
// list, unless the cache was invalidated since epoch, read before the
// decisions' estimates were. A template larger than the whole budget is
// refused.
func (c *PlanCache) Put(key string, d *planDecisions, epoch uint64) {
	c.Cache.Put(key, d, d.size+int64(len(key)), d.tables, epoch)
}
