package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bytecard/internal/expr"
	"bytecard/internal/sqlparse"
)

// ScanPlan records the optimizer's materialization decision for one table.
type ScanPlan struct {
	TableIdx int
	// Strategy is "single-stage" or "multi-stage".
	Strategy string
	// ColOrder is the predicate-column order for the multi-stage reader.
	ColOrder []string
	// EstRows is the estimated filtered row count.
	EstRows float64
	// Pushdown routes the scan through the storage.BlockScan contract
	// (zone-map skipping, vectorized per-block filtering, late
	// materialization). It is orthogonal to Strategy: the strategy label
	// still records what the legacy readers would have chosen, and is what
	// executes when Pushdown is false. Set only for conjunctive (or empty)
	// filters when the engine's Pushdown knob is on and no ForceReader
	// ablation pins the legacy readers.
	Pushdown bool
}

// Plan is a fully optimized physical plan.
type Plan struct {
	Query *Query
	Scans []*ScanPlan
	// JoinOrder lists table indices in left-deep join sequence; the first
	// entry is the leftmost base table.
	JoinOrder []int
	// JoinEstRows holds the estimated cardinality after each join step,
	// aligned with JoinOrder[1:] (empty for single-table queries).
	JoinEstRows []float64
	// EstFinalRows is the estimated cardinality of the joined, filtered
	// relation.
	EstFinalRows float64
	// AggCapacity is the presized aggregation hash-table capacity.
	AggCapacity int
	// CacheHit marks plans rebuilt from the template plan cache rather
	// than planned fresh.
	CacheHit bool
}

// Plan optimizes the analyzed query: per-scan materialization strategy and
// column order, join order via dynamic programming over connected subsets,
// and aggregation hash-table presizing — each decision driven by the
// engine's estimator, which is exactly where ByteCard plugs in.
//
// With a PlanCache wired, the query's normalized template is consulted
// first: a hit replays the template's cached decisions onto q without a
// single estimator call, and a miss publishes the freshly planned
// decisions for the template's next sibling. Queries without an attached
// statement (no template identity) always plan fresh.
func (e *Engine) Plan(q *Query) (*Plan, error) {
	var key string
	if e.PlanCache != nil && q.Stmt != nil {
		key = sqlparse.Normalize(q.Stmt)
		if d, ok := e.PlanCache.Get(key); ok && len(d.scans) == len(q.Tables) {
			p := d.apply(q)
			// The cached bool carries the template's structural eligibility
			// (conjunctive filter); the engine-local knob and ForceReader
			// ablation re-gate it so a knob flip never replays a stale
			// routing decision.
			if e.ForceReader != "" || e.Pushdown < 0 {
				for _, sp := range p.Scans {
					sp.Pushdown = false
				}
			}
			p.CacheHit = true
			return p, nil
		}
	}
	p := &Plan{Query: q}
	for i := range q.Tables {
		p.Scans = append(p.Scans, e.planScan(q, i))
	}
	if err := e.planJoinOrder(p); err != nil {
		return nil, err
	}
	e.planAggregation(p)
	if key != "" {
		e.PlanCache.Put(key, decisionsOf(p))
	}
	return p, nil
}

// planScan chooses the reader strategy and predicate column order.
func (e *Engine) planScan(q *Query, idx int) *ScanPlan {
	t := q.Tables[idx]
	sp := &ScanPlan{TableIdx: idx, Strategy: "single-stage"}
	n := float64(t.Table.NumRows())
	sp.EstRows = e.Est.EstimateFilter(t)
	if sp.EstRows < 0 {
		sp.EstRows = 0
	}
	if sp.EstRows > n {
		sp.EstRows = n
	}
	preds, isConj := t.Filter.Conjunction()
	predCols := distinctCols(preds)
	switch {
	case e.ForceReader != "":
		sp.Strategy = e.ForceReader
	case !isConj || len(predCols) < 2:
		// OR trees and zero/one-column filters gain nothing from staging.
		sp.Strategy = "single-stage"
	case n > 0 && sp.EstRows/n < e.readerThreshold():
		sp.Strategy = "multi-stage"
	}
	if sp.Strategy == "multi-stage" {
		switch {
		case !isConj:
			// The staged reader only decomposes conjunctions; downgrade
			// even when forced.
			sp.Strategy = "single-stage"
		case len(predCols) >= 2:
			sp.ColOrder = e.orderPredColumns(t, preds, predCols)
		default:
			sp.ColOrder = predCols
		}
	}
	sp.Pushdown = isConj && e.ForceReader == "" && e.Pushdown >= 0
	return sp
}

func distinctCols(preds []expr.Pred) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range preds {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	return out
}

// orderPredColumns greedily orders predicate columns by conditional
// selectivity: each step adds the column whose predicates shrink the
// running conjunction the most, letting the estimator's cross-column
// modelling (the BN joint distribution) pay off. Enumeration early-stops
// once the running selectivity exceeds a threshold; remaining columns are
// appended by single-column selectivity.
func (e *Engine) orderPredColumns(t *QueryTable, preds []expr.Pred, cols []string) []string {
	predsOf := func(col string) []expr.Pred {
		var out []expr.Pred
		for _, p := range preds {
			if p.Col == col {
				out = append(out, p)
			}
		}
		return out
	}
	remaining := append([]string(nil), cols...)
	var order []string
	var chosen []expr.Pred
	runningSel := 1.0
	for len(remaining) > 0 {
		if runningSel > DefaultColOrderEarlyStop && len(order) > 0 {
			// Early stop: order the tail by single-column selectivity.
			sort.SliceStable(remaining, func(i, j int) bool {
				return e.Est.EstimateConj(t, predsOf(remaining[i])) < e.Est.EstimateConj(t, predsOf(remaining[j]))
			})
			order = append(order, remaining...)
			break
		}
		best, bestSel := -1, math.Inf(1)
		for i, col := range remaining {
			sel := e.Est.EstimateConj(t, append(append([]expr.Pred(nil), chosen...), predsOf(col)...))
			if sel < bestSel {
				best, bestSel = i, sel
			}
		}
		col := remaining[best]
		order = append(order, col)
		chosen = append(chosen, predsOf(col)...)
		runningSel = bestSel
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return order
}

// planJoinOrder runs left-deep dynamic programming over connected table
// subsets, costing each plan by the sum of intermediate cardinalities
// (C_out) from the estimator.
//
// The DP walks the reachable frontier rank by rank (subsets of k tables,
// then k+1) instead of materializing and sorting all 2^n−1 masks, so a
// 2-table join touches 3 subsets, not 4095. Each rank's newly reachable
// subsets are estimated before any dp update: when the estimator implements
// BatchCardEstimator they go out as one batch (fanned across
// Engine.Parallelism workers by the estimator), otherwise as sequential
// EstimateJoin calls over reused tabs/conds scratch. Because the card memo
// is fully populated before the rank's cost comparisons run — and those
// comparisons always process base masks in ascending numeric order — the
// batched and sequential paths produce byte-identical plans.
func (e *Engine) planJoinOrder(p *Plan) error {
	q := p.Query
	n := len(q.Tables)
	if n == 1 {
		p.JoinOrder = []int{0}
		p.EstFinalRows = p.Scans[0].EstRows
		return nil
	}
	if n > 12 {
		return fmt.Errorf("engine: join of %d tables exceeds the optimizer's limit", n)
	}
	bindingIdx := map[string]int{}
	for i, t := range q.Tables {
		bindingIdx[t.Binding] = i
	}
	// connected[a] = bitmask of tables joined to a by some condition.
	connected := make([]uint32, n)
	for _, j := range q.Joins {
		a, b := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
		connected[a] |= 1 << b
		connected[b] |= 1 << a
	}
	// extensions returns the tables joined to subset m but outside it.
	extensions := func(m uint32) uint32 {
		var reach uint32
		for j := 0; j < n; j++ {
			if m&(1<<j) != 0 {
				reach |= connected[j]
			}
		}
		return reach &^ m
	}

	card := make(map[uint32]float64) // estimated rows of each subset
	for i := range q.Tables {
		card[1<<i] = p.Scans[i].EstRows
	}
	sanitize := func(c float64) float64 {
		if c < 1 || math.IsNaN(c) {
			return 1
		}
		return c
	}
	// fillSubset appends the subset's tables and internal join conditions.
	fillSubset := func(mask uint32, tabs []*QueryTable, conds []JoinCond) ([]*QueryTable, []JoinCond) {
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				tabs = append(tabs, q.Tables[i])
			}
		}
		for _, j := range q.Joins {
			if mask&(1<<bindingIdx[j.LeftTab]) != 0 && mask&(1<<bindingIdx[j.RightTab]) != 0 {
				conds = append(conds, j)
			}
		}
		return tabs, conds
	}
	batchEst, batching := e.Est.(BatchCardEstimator)
	// Sequential scratch, reused across estimates (the CardEstimator
	// contract forbids retaining the slices).
	tabs := make([]*QueryTable, 0, n)
	conds := make([]JoinCond, 0, len(q.Joins))
	// Canonical per-table and per-condition tokens for JoinBatchItem.Key,
	// built lazily on the first batched rank: a subset's key is its table
	// tokens (binding, physical name, and full filter text — constants
	// included, so only byte-identical filters share a key) plus its
	// internal join conditions, both in q's deterministic order. Two Plan
	// calls over semantically identical subsets produce identical keys, so
	// a memoizing estimator can reuse sizes across ranks and across
	// queries.
	var tabTokens, condTokens []string
	subsetKey := func(mask uint32) string {
		if tabTokens == nil {
			tabTokens = make([]string, n)
			for i, t := range q.Tables {
				filter := ""
				if t.Filter != nil {
					filter = t.Filter.String()
				}
				tabTokens[i] = t.Binding + "\x1f" + t.Name + "\x1f" + filter
			}
			condTokens = make([]string, len(q.Joins))
			for i, j := range q.Joins {
				condTokens[i] = j.String()
			}
		}
		var b strings.Builder
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				b.WriteString(tabTokens[i])
				b.WriteByte('\x1e')
			}
		}
		b.WriteByte('\x1d')
		for i, j := range q.Joins {
			if mask&(1<<bindingIdx[j.LeftTab]) != 0 && mask&(1<<bindingIdx[j.RightTab]) != 0 {
				b.WriteString(condTokens[i])
				b.WriteByte('\x1e')
			}
		}
		return b.String()
	}
	// estimateAll fills card for every listed mask (all absent from card).
	estimateAll := func(masks []uint32) {
		if batching && len(masks) >= DefaultBatchThreshold {
			items := make([]JoinBatchItem, len(masks))
			for k, mask := range masks {
				items[k].Tables, items[k].Conds = fillSubset(mask, nil, nil)
				items[k].Key = subsetKey(mask)
			}
			for k, c := range batchEst.EstimateJoinBatch(items, e.workers()) {
				card[masks[k]] = sanitize(c)
			}
			return
		}
		for _, mask := range masks {
			tabs, conds = fillSubset(mask, tabs[:0], conds[:0])
			card[mask] = sanitize(e.Est.EstimateJoin(tabs, conds))
		}
	}
	subsetCard := func(mask uint32) float64 {
		if c, ok := card[mask]; ok {
			return c
		}
		tabs, conds = fillSubset(mask, tabs[:0], conds[:0])
		c := sanitize(e.Est.EstimateJoin(tabs, conds))
		card[mask] = c
		return c
	}

	type dpEntry struct {
		cost  float64
		order []int
	}
	dp := map[uint32]dpEntry{}
	frontier := make([]uint32, 0, n) // rank-k dp keys, ascending
	for i := 0; i < n; i++ {
		dp[1<<i] = dpEntry{cost: 0, order: []int{i}}
		frontier = append(frontier, 1<<i)
	}
	full := uint32(1<<n) - 1
	for rank := 1; rank < n && len(frontier) > 0; rank++ {
		// Discover the next rank's reachable connected subsets and
		// estimate the whole frontier before any cost comparison.
		seen := map[uint32]bool{}
		next := make([]uint32, 0, len(frontier))
		for _, m := range frontier {
			ext := extensions(m)
			for i := 0; i < n; i++ {
				if ext&(1<<i) == 0 {
					continue
				}
				nm := m | 1<<i
				if !seen[nm] {
					seen[nm] = true
					next = append(next, nm)
				}
			}
		}
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		estimateAll(next)
		// Cost updates in deterministic ascending base-mask order; strict
		// < keeps the first (lowest-mask) winner on cost ties.
		for _, m := range frontier {
			base := dp[m]
			ext := extensions(m)
			for i := 0; i < n; i++ {
				if ext&(1<<i) == 0 {
					continue
				}
				nm := m | 1<<i
				cost := base.cost + card[nm]
				if cur, ok := dp[nm]; !ok || cost < cur.cost {
					order := append(append([]int(nil), base.order...), i)
					dp[nm] = dpEntry{cost: cost, order: order}
				}
			}
		}
		frontier = next
	}
	best, ok := dp[full]
	if !ok {
		return fmt.Errorf("engine: join graph is not connected")
	}
	p.JoinOrder = best.order
	// Record the estimated cardinality of each left-deep prefix (cached in
	// the DP's card map, so this re-walks without re-estimating) — the
	// per-node annotations EXPLAIN reports.
	prefix := uint32(1) << best.order[0]
	for _, idx := range best.order[1:] {
		prefix |= 1 << idx
		p.JoinEstRows = append(p.JoinEstRows, subsetCard(prefix))
	}
	p.EstFinalRows = subsetCard(full)
	return nil
}

// planAggregation presizes the aggregation hash table from the estimator's
// group-NDV estimate (the Figure 6b mechanism). Without grouping no hash
// table is needed.
func (e *Engine) planAggregation(p *Plan) {
	q := p.Query
	if len(q.GroupBy) == 0 {
		p.AggCapacity = 0
		return
	}
	if e.DisableNDVPresize {
		p.AggCapacity = e.defaultAggCapacity()
		return
	}
	ndv := e.Est.EstimateGroupNDV(q)
	if ndv < 1 || math.IsNaN(ndv) || math.IsInf(ndv, 0) {
		ndv = float64(e.defaultAggCapacity())
	}
	if p.EstFinalRows > 0 && ndv > p.EstFinalRows {
		ndv = p.EstFinalRows
	}
	p.AggCapacity = int(ndv)
}
