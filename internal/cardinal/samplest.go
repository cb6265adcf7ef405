package cardinal

import (
	"math"
	"sort"

	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/sample"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// SampleEstimator is the AnalyticDB-style baseline: it keeps a reservoir
// sample per table and answers every estimate by evaluating the query's
// predicates over the samples at estimation time. That real-time predicate
// work is the estimation overhead the paper observes at low latency
// quantiles, and small samples under skew are its accuracy failure mode.
type SampleEstimator struct {
	frames map[string]*sample.Frame
	rate   float64
}

// DefaultSampleRows caps each table's reservoir.
const DefaultSampleRows = 2000

// NewSampleEstimator draws reservoir samples of up to maxRows per table.
func NewSampleEstimator(db *storage.Database, maxRows int, seed int64) *SampleEstimator {
	if maxRows <= 0 {
		maxRows = DefaultSampleRows
	}
	return newSampleEstimator(db, func(int) int { return maxRows }, seed)
}

// NewSampleEstimatorRate draws rate-proportional reservoir samples (the
// production configuration: a fixed sampling rate, clamped to
// [minRows, maxRows]). A fixed absolute reservoir would silently degrade
// into a full scan on small tables, hiding the estimator's sampling error.
func NewSampleEstimatorRate(db *storage.Database, rate float64, minRows, maxRows int, seed int64) *SampleEstimator {
	if rate <= 0 {
		rate = 0.01
	}
	if minRows <= 0 {
		minRows = 50
	}
	if maxRows <= 0 {
		maxRows = DefaultSampleRows
	}
	return newSampleEstimator(db, func(n int) int {
		k := int(float64(n) * rate)
		if k < minRows {
			k = minRows
		}
		if k > maxRows {
			k = maxRows
		}
		return k
	}, seed)
}

func newSampleEstimator(db *storage.Database, sizeOf func(rows int) int, seed int64) *SampleEstimator {
	e := &SampleEstimator{frames: map[string]*sample.Frame{}}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		e.frames[name] = sample.SampleTable(t, sizeOf(t.NumRows()), seed^int64(len(name))^int64(t.NumRows()))
	}
	return e
}

// Name implements engine.CardEstimator.
func (e *SampleEstimator) Name() string { return "sample" }

// EstimateFilter implements engine.CardEstimator by counting matching
// sample rows and scaling, with half-row smoothing so empty matches do not
// collapse to zero.
func (e *SampleEstimator) EstimateFilter(t *engine.QueryTable) float64 {
	f := e.frames[t.Name]
	if f == nil || t.Filter == nil {
		return float64(t.Table.NumRows())
	}
	sel, err := f.Select(t.Filter, nil)
	if err != nil {
		return engine.HeuristicEstimator{}.EstimateFilter(t)
	}
	scale := float64(t.Table.NumRows()) / math.Max(float64(f.Len()), 1)
	return (float64(len(sel)) + 0.5) * scale
}

// EstimateConj implements engine.CardEstimator.
func (e *SampleEstimator) EstimateConj(t *engine.QueryTable, preds []expr.Pred) float64 {
	f := e.frames[t.Name]
	if f == nil || f.Len() == 0 {
		return 1
	}
	var node *expr.Node
	for _, p := range preds {
		node = expr.And(node, expr.Leaf(p))
	}
	sel, err := f.Select(node, nil)
	if err != nil {
		return engine.HeuristicEstimator{}.EstimateConj(t, preds)
	}
	return (float64(len(sel)) + 0.5) / float64(f.Len())
}

// EstimateJoin implements engine.CardEstimator by actually joining the
// filtered samples along the query's join conditions and scaling by the
// product of sampling rates. The join carries multiplicity-compressed
// signatures (only the key values later conditions still need), so even
// skewed star joins stay linear in the sample sizes. Sample joins still
// famously underestimate sparse keys (few sample rows share join
// partners), which the smoothing floor only partly repairs — the behaviour
// Figure 7 shows on AEOLUS.
func (e *SampleEstimator) EstimateJoin(tables []*engine.QueryTable, joins []engine.JoinCond) float64 {
	// Each table's filtered sample rows, read cell by cell through the
	// frame's table.
	type tabState struct {
		tab  *storage.Table
		rows []int32
	}
	states := map[string]*tabState{}
	scale := 1.0
	for _, t := range tables {
		full := e.frames[t.Name]
		if full == nil || full.Len() == 0 {
			return engine.HeuristicEstimator{}.EstimateJoin(tables, joins)
		}
		rows, err := full.Select(t.Filter, nil)
		if err != nil {
			return engine.HeuristicEstimator{}.EstimateJoin(tables, joins)
		}
		states[t.Binding] = &tabState{tab: full.Table(), rows: rows}
		scale /= float64(full.Len()) / float64(t.Table.NumRows())
	}
	cell := func(binding, col string, row int32) types.Datum {
		return states[binding].tab.ColByName(col).Value(int(row))
	}

	// A tuple is represented by the values of the columns remaining join
	// conditions can still observe, plus a multiplicity.
	type entry struct {
		vals  map[string]types.Datum // "binding.col" → value
		count float64
	}
	liveCols := func(inSet map[string]bool, remaining []engine.JoinCond) map[string]bool {
		out := map[string]bool{}
		for _, j := range remaining {
			if inSet[j.LeftTab] {
				out[j.LeftTab+"."+j.LeftCol] = true
			}
			if inSet[j.RightTab] {
				out[j.RightTab+"."+j.RightCol] = true
			}
		}
		return out
	}
	sigOf := func(vals map[string]types.Datum, live map[string]bool) uint64 {
		var h uint64 = 1469598103934665603
		for _, key := range sortedKeys(live) {
			h = h*1099511628211 ^ vals[key].Hash64()
		}
		return h
	}
	project := func(ents map[uint64]*entry, live map[string]bool) map[uint64]*entry {
		out := make(map[uint64]*entry, len(ents))
		for _, en := range ents {
			vals := map[string]types.Datum{}
			for key := range live {
				vals[key] = en.vals[key]
			}
			h := sigOf(vals, live)
			if prev, ok := out[h]; ok {
				prev.count += en.count
			} else {
				out[h] = &entry{vals: vals, count: en.count}
			}
		}
		return out
	}

	inSet := map[string]bool{tables[0].Binding: true}
	// Conds not yet applied.
	remaining := append([]engine.JoinCond(nil), joins...)
	first := states[tables[0].Binding]
	cur := map[uint64]*entry{}
	{
		live := liveCols(inSet, remaining)
		for _, row := range first.rows {
			vals := map[string]types.Datum{}
			for key := range live {
				vals[key] = cell(tables[0].Binding, key[len(tables[0].Binding)+1:], row)
			}
			h := sigOf(vals, live)
			if prev, ok := cur[h]; ok {
				prev.count++
			} else {
				cur[h] = &entry{vals: vals, count: 1}
			}
		}
	}
	for _, t := range tables[1:] {
		st := states[t.Binding]
		var conds []engine.JoinCond
		var rest []engine.JoinCond
		for _, j := range remaining {
			switch {
			case inSet[j.LeftTab] && j.RightTab == t.Binding:
				conds = append(conds, j)
			case inSet[j.RightTab] && j.LeftTab == t.Binding:
				conds = append(conds, engine.JoinCond{LeftTab: j.RightTab, LeftCol: j.RightCol, RightTab: j.LeftTab, RightCol: j.LeftCol})
			default:
				rest = append(rest, j)
			}
		}
		if len(conds) == 0 {
			// Disconnected prefix: the DP only asks connected subsets, so
			// treat this as a modelling gap and fall back.
			return engine.HeuristicEstimator{}.EstimateJoin(tables, joins)
		}
		remaining = rest
		inSet[t.Binding] = true
		live := liveCols(inSet, remaining)

		// Build on the new table's sample rows, keyed by join values.
		type buildRow struct {
			key  []types.Datum
			vals map[string]types.Datum
		}
		build := map[uint64][]buildRow{}
		for _, row := range st.rows {
			key := make([]types.Datum, len(conds))
			var h uint64 = 1469598103934665603
			for k, c := range conds {
				key[k] = cell(t.Binding, c.RightCol, row)
				h = h*1099511628211 ^ key[k].Hash64()
			}
			vals := map[string]types.Datum{}
			for lk := range live {
				if len(lk) > len(t.Binding) && lk[:len(t.Binding)+1] == t.Binding+"." {
					vals[lk] = cell(t.Binding, lk[len(t.Binding)+1:], row)
				}
			}
			build[h] = append(build[h], buildRow{key: key, vals: vals})
		}
		next := map[uint64]*entry{}
		probeKey := make([]types.Datum, len(conds))
		for _, en := range cur {
			var h uint64 = 1469598103934665603
			for k, c := range conds {
				probeKey[k] = en.vals[c.LeftTab+"."+c.LeftCol]
				h = h*1099511628211 ^ probeKey[k].Hash64()
			}
			for _, br := range build[h] {
				match := true
				for k := range probeKey {
					if !probeKey[k].Equal(br.key[k]) {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				vals := map[string]types.Datum{}
				for lk := range live {
					if v, ok := en.vals[lk]; ok {
						vals[lk] = v
					} else if v, ok := br.vals[lk]; ok {
						vals[lk] = v
					}
				}
				sh := sigOf(vals, live)
				if prev, ok := next[sh]; ok {
					prev.count += en.count
				} else {
					next[sh] = &entry{vals: vals, count: en.count}
				}
			}
		}
		cur = project(next, live)
		if len(cur) == 0 {
			break
		}
	}
	var matches float64
	for _, en := range cur {
		matches += en.count
	}
	if matches == 0 {
		// Empty sample join: smooth with half a match.
		return math.Max(0.5*scale, 1)
	}
	return matches * scale
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EstimateGroupNDV implements engine.CardEstimator with the GEE estimator
// over the filtered per-table sample profiles, multiplied across tables and
// capped by the estimated join size.
func (e *SampleEstimator) EstimateGroupNDV(q *engine.Query) float64 {
	perTable := map[string][]string{}
	for _, g := range q.GroupBy {
		perTable[g.Tab] = append(perTable[g.Tab], g.Col)
	}
	ndv := 1.0
	for binding, cols := range perTable {
		t := q.TableByBinding(binding)
		f := e.frames[t.Name]
		if f == nil {
			continue
		}
		p, err := f.ProfileOf(t.Filter, cols...)
		if err != nil {
			return engine.HeuristicEstimator{}.EstimateGroupNDV(q)
		}
		if p.SampleRows == 0 {
			continue
		}
		ndv *= math.Max(p.GEE(), 1)
	}
	var out float64
	if len(q.Tables) == 1 {
		out = e.EstimateFilter(q.Tables[0])
	} else {
		out = e.EstimateJoin(q.Tables, q.Joins)
	}
	return math.Min(ndv, math.Max(out, 1))
}
