package cardinal

import (
	"math"

	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/sample"
	"bytecard/internal/storage"
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
// filtered samples along the query's join conditions, through the
// executor's join pipeline (engine.JoinSize), and scaling by the product of
// sampling rates. Sample joins still famously underestimate sparse keys
// (few sample rows share join partners), which the smoothing floor only
// partly repairs — the behaviour Figure 7 shows on AEOLUS. A join the
// pipeline refuses (a table joining nothing before it in the given order,
// or a size past its bounds) takes the heuristic estimate.
func (e *SampleEstimator) EstimateJoin(tables []*engine.QueryTable, joins []engine.JoinCond) float64 {
	samples := make([]*engine.QueryTable, len(tables))
	rows := make([][]int32, len(tables))
	scale := 1.0
	for i, t := range tables {
		f := e.frames[t.Name]
		if f == nil || f.Len() == 0 {
			return engine.HeuristicEstimator{}.EstimateJoin(tables, joins)
		}
		var err error
		if rows[i], err = f.Select(t.Filter, make([]int32, 0, f.Len())); err != nil {
			return engine.HeuristicEstimator{}.EstimateJoin(tables, joins)
		}
		samples[i] = &engine.QueryTable{Binding: t.Binding, Name: t.Name, Table: f.Table()}
		scale /= float64(f.Len()) / float64(t.Table.NumRows())
	}
	matches, err := engine.JoinSize(samples, rows, joins)
	if err != nil {
		return engine.HeuristicEstimator{}.EstimateJoin(tables, joins)
	}
	if matches == 0 {
		// Empty sample join: smooth with half a match.
		return math.Max(0.5*scale, 1)
	}
	return float64(matches) * scale
}

// EstimateGroupNDV implements engine.CardEstimator with the GEE estimator
// over the filtered per-table sample profiles, multiplied across tables and
// capped by the estimated join size.
func (e *SampleEstimator) EstimateGroupNDV(q *engine.Query) float64 {
	// Tables multiply in the order their first key appears, so the float
	// product is the same on every call.
	var bindings []string
	perTable := map[string][]string{}
	for _, g := range q.GroupBy {
		if perTable[g.Tab] == nil {
			bindings = append(bindings, g.Tab)
		}
		perTable[g.Tab] = append(perTable[g.Tab], g.Col)
	}
	ndv := 1.0
	for _, binding := range bindings {
		cols := perTable[binding]
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
