package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

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
	case n > 0 && sp.EstRows/n < DefaultReaderThreshold:
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
// Which subsets the DP visits never depends on an estimate, so the walk is
// split in three. (1) Enumerate the reachable frontier rank by rank
// (subsets of k tables, then k+1) instead of materializing all 2^n−1
// masks, so a 2-table join touches 3 subsets, not 4095. (2) Size every
// enumerated subset: when the estimator implements BatchCardEstimator the
// whole DP goes out as one batch (the estimator shares per-table and
// per-subtree work across all of it and may fan it across
// Engine.Parallelism workers), otherwise as sequential EstimateJoin calls
// over reused tabs/conds scratch, in the same order. (3) Run the cost
// recurrence over the enumerated ranks. Because every cardinality is known
// before the first comparison — and comparisons always process base masks
// in ascending numeric order — the batched and sequential paths produce
// byte-identical plans.
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
	// connected[a] = bitmask of tables joined to a by some condition;
	// ends[j] = the two tables condition j joins.
	connected := make([]uint32, n)
	ends := make([]uint32, len(q.Joins))
	for k, j := range q.Joins {
		a, b := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
		connected[a] |= 1 << b
		connected[b] |= 1 << a
		ends[k] = 1<<a | 1<<b
	}
	// extensions returns the tables joined to subset m but outside it.
	extensions := func(m uint32) uint32 {
		var reach uint32
		for rest := m; rest != 0; rest &= rest - 1 {
			reach |= connected[bits.TrailingZeros32(rest)]
		}
		return reach &^ m
	}

	// Enumerate: subsets holds every reachable connected subset, rank after
	// rank, ascending within a rank; rankEnd[k] is where rank k+1 (k+1
	// tables) ends. seen is a bitset over the 2^n masks.
	full := uint32(1)<<n - 1
	seen := make([]uint64, (int(full)>>6)+1)
	subsets := make([]uint32, 0, 4*n)
	for i := 0; i < n; i++ {
		subsets = append(subsets, 1<<i)
	}
	rankEnd := make([]int, 1, n)
	rankEnd[0] = n
	for lo := 0; len(rankEnd) < n && lo < len(subsets); {
		hi := len(subsets)
		for _, m := range subsets[lo:hi] {
			for ext := extensions(m); ext != 0; ext &= ext - 1 {
				nm := m | ext&-ext
				if seen[nm>>6]&(1<<(nm&63)) == 0 {
					seen[nm>>6] |= 1 << (nm & 63)
					subsets = append(subsets, nm)
				}
			}
		}
		next := subsets[hi:]
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		rankEnd = append(rankEnd, len(subsets))
		lo = hi
	}

	// Size: card[mask] is the estimated rows of each enumerated subset.
	card := make([]float64, int(full)+1)
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
		for rest := mask; rest != 0; rest &= rest - 1 {
			tabs = append(tabs, q.Tables[bits.TrailingZeros32(rest)])
		}
		for k, j := range q.Joins {
			if ends[k]&^mask == 0 {
				conds = append(conds, j)
			}
		}
		return tabs, conds
	}
	joined := subsets[n:]
	if batchEst, ok := e.Est.(BatchCardEstimator); ok && len(joined) > 0 {
		// One backing array each for every item's tables and conditions.
		var ntabs, nconds int
		for _, mask := range joined {
			ntabs += bits.OnesCount32(mask)
			for _, end := range ends {
				if end&^mask == 0 {
					nconds++
				}
			}
		}
		tabs := make([]*QueryTable, 0, ntabs)
		conds := make([]JoinCond, 0, nconds)
		items := make([]JoinBatchItem, len(joined))
		for k, mask := range joined {
			t0, c0 := len(tabs), len(conds)
			tabs, conds = fillSubset(mask, tabs, conds)
			items[k] = JoinBatchItem{Tables: tabs[t0:len(tabs):len(tabs)], Conds: conds[c0:len(conds):len(conds)]}
		}
		for k, c := range batchEst.EstimateJoinBatch(items, e.workers()) {
			card[joined[k]] = sanitize(c)
		}
	} else {
		// Sequential scratch, reused across estimates (the CardEstimator
		// contract forbids retaining the slices).
		tabs := make([]*QueryTable, 0, n)
		conds := make([]JoinCond, 0, len(q.Joins))
		for _, mask := range joined {
			tabs, conds = fillSubset(mask, tabs[:0], conds[:0])
			card[mask] = sanitize(e.Est.EstimateJoin(tabs, conds))
		}
	}

	// Cost: per subset the best (cost, previous subset, table joined last);
	// prev == 0 marks a subset no plan has reached yet. Base masks run in
	// ascending order within a rank and strict < keeps the first
	// (lowest-mask) winner on cost ties.
	cost := make([]float64, int(full)+1)
	prev := make([]uint32, int(full)+1)
	last := make([]uint8, int(full)+1)
	lo := 0
	for _, hi := range rankEnd {
		for _, m := range subsets[lo:hi] {
			for ext := extensions(m); ext != 0; ext &= ext - 1 {
				nm := m | ext&-ext
				if c := cost[m] + card[nm]; prev[nm] == 0 || c < cost[nm] {
					cost[nm], prev[nm], last[nm] = c, m, uint8(bits.TrailingZeros32(ext))
				}
			}
		}
		lo = hi
	}
	if prev[full] == 0 {
		return fmt.Errorf("engine: join graph is not connected")
	}
	// Rebuild the winning order back to front, with the estimated
	// cardinality of each left-deep prefix (the per-node annotations
	// EXPLAIN reports).
	p.JoinOrder = make([]int, n)
	p.JoinEstRows = make([]float64, n-1)
	m := full
	for i := n - 1; i > 0; i-- {
		p.JoinOrder[i] = int(last[m])
		p.JoinEstRows[i-1] = card[m]
		m = prev[m]
	}
	p.JoinOrder[0] = bits.TrailingZeros32(m)
	p.EstFinalRows = card[full]
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
