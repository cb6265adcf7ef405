package core

import (
	"fmt"

	"bytecard/internal/catalog"
	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
)

// FeatureVector is the featurization product the Inference Engine's
// estimate interface consumes: the analyzed, bound form of a query. The
// SQL path (featurizeSQLQuery) exists for fast proof-of-concept
// integration of new models; the AST path (featurizeAST) extracts the same
// features from the analyzer's tree without re-parsing, which is how the
// production integration calls it.
type FeatureVector struct {
	query *engine.Query
}

// Query exposes the underlying analyzed query.
func (f *FeatureVector) Query() *engine.Query { return f.query }

// Featurizer builds feature vectors against one database and schema.
type Featurizer struct {
	analyzer *engine.Engine
}

// NewFeaturizer creates a featurizer. The schema may be nil.
func NewFeaturizer(db *storage.Database, schema *catalog.Schema) *Featurizer {
	return &Featurizer{analyzer: engine.New(db, schema, engine.HeuristicEstimator{})}
}

// FeaturizeSQLQuery parses and featurizes a SQL string.
func (f *Featurizer) FeaturizeSQLQuery(sql string) (*FeatureVector, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return f.FeaturizeAST(stmt)
}

// FeaturizeAST featurizes an already-parsed statement.
func (f *Featurizer) FeaturizeAST(stmt *sqlparse.SelectStmt) (*FeatureVector, error) {
	q, err := f.analyzer.Analyze(stmt)
	if err != nil {
		return nil, err
	}
	return &FeatureVector{query: q}, nil
}

// Estimate returns the COUNT cardinality of the featurized query. Unlike
// the engine.CardEstimator methods, it surfaces model errors instead of
// silently falling back, so callers (e.g. the Model Monitor) can
// distinguish model failure from a poor estimate.
func (e *Estimator) Estimate(fv *FeatureVector) (float64, error) {
	q := fv.query
	if len(q.Tables) == 1 {
		v, err := e.countSingle(q.Tables[0])
		return v.Float(), err
	}
	fj := e.Infer.FactorJoin()
	if fj == nil {
		return 0, fmt.Errorf("core: no FactorJoin model loaded")
	}
	est := e.strict().EstimateJoin(q.Tables, q.Joins)
	if est < 0 {
		return 0, fmt.Errorf("core: join estimation failed")
	}
	return est, nil
}

// strict returns a view whose fallback fails loudly; the original
// estimator is left untouched, keeping concurrent query threads safe. The
// guard, registry, and vector cache are shared so probe traffic sees the
// same protections (and feeds the same guard counters and breakers) as
// production traffic; the request counters are private so probes don't
// inflate the production call/fallback totals.
func (e *Estimator) strict() *Estimator {
	view := *e
	view.Fallback = errorFallback{}
	view.Metrics = obs.NewEstimatorMetrics()
	return &view
}

// EstimateNDV returns the COUNT-DISTINCT estimate for the featurized
// query's first COUNT DISTINCT aggregate (or its GROUP BY keys when no
// explicit distinct aggregate exists).
func (e *Estimator) EstimateNDV(fv *FeatureVector) (float64, error) {
	target, err := ndvTarget(fv.query)
	if err != nil {
		return 0, err
	}
	if e.Infer.RBX() == nil {
		return 0, fmt.Errorf("core: no RBX model loaded")
	}
	est := e.strict().EstimateGroupNDV(target)
	if est < 0 {
		return 0, fmt.Errorf("core: NDV estimation fell back (missing sample or model)")
	}
	return est, nil
}

// CountWithTrace is the graceful sibling of Estimate for the Detail APIs:
// it estimates the featurized query's COUNT cardinality through the same
// degradation ladder the optimizer uses — model failures fall back to the
// traditional estimator instead of erroring — while recording every step
// into tr. The returned value is always usable; tr tells the caller who
// produced it and what went wrong on the way.
func (e *Estimator) CountWithTrace(fv *FeatureVector, tr *obs.Trace) float64 {
	view := e.traced(tr)
	q := fv.query
	if len(q.Tables) == 1 {
		return view.EstimateFilter(q.Tables[0])
	}
	return view.EstimateJoin(q.Tables, q.Joins)
}

// NDVWithTrace is the graceful sibling of EstimateNDV: the query's first
// COUNT DISTINCT aggregate (or its GROUP BY keys) is estimated with
// fallback instead of hard failure, recording every step into tr. It
// errors only when the query has no distinct aggregate or grouping.
func (e *Estimator) NDVWithTrace(fv *FeatureVector, tr *obs.Trace) (float64, error) {
	target, err := ndvTarget(fv.query)
	if err != nil {
		return 0, err
	}
	return e.traced(tr).EstimateGroupNDV(target), nil
}

// ndvTarget rewrites COUNT(DISTINCT cols) into an equivalent group-NDV
// request, or returns the query unchanged when it already groups.
func ndvTarget(q *engine.Query) (*engine.Query, error) {
	for _, agg := range q.Aggs {
		if agg.Kind == engine.AggCountDistinct {
			clone := *q
			clone.GroupBy = agg.Cols
			return &clone, nil
		}
	}
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("core: query has no distinct aggregate or grouping")
	}
	return q, nil
}

// errorFallback marks fallback paths as hard failures for the strict
// featurization API; its sentinel value (-1) is detected by Estimate.
type errorFallback struct{}

func (errorFallback) Name() string                                                 { return "error" }
func (errorFallback) EstimateFilter(*engine.QueryTable) float64                    { return -1 }
func (errorFallback) EstimateConj(*engine.QueryTable, []expr.Pred) float64         { return -1 }
func (errorFallback) EstimateJoin([]*engine.QueryTable, []engine.JoinCond) float64 { return -1 }
func (errorFallback) EstimateGroupNDV(*engine.Query) float64                       { return -1 }
