package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/estimate"
	"bytecard/internal/expr"
	"bytecard/internal/factorjoin"
	"bytecard/internal/obs"
	"bytecard/internal/residual"
	"bytecard/internal/sample"
	"bytecard/internal/types"
)

// Estimator is ByteCard's cardinality estimator: Bayesian networks for
// single-table COUNT, FactorJoin for join sizes (fed by the BNs' filtered
// per-bucket key counts), and RBX over per-table sample frames for group
// NDV. Whenever a needed model is missing, disabled by the Model Monitor,
// or fails, the estimate transparently falls back to the configured
// traditional estimator — the reliability contract the paper's deployment
// depends on.
//
// Every model call is observable: Metrics accumulates counters and latency
// /q-error histograms across all views of the estimator, and WithTrace
// derives a view that additionally records a per-query obs.Trace — which
// model answered, guard outcomes, breaker verdicts, cache hits, and
// nanosecond timings.
type Estimator struct {
	Infer *InferenceEngine
	// Fallback is the traditional estimator (typically sketch-based).
	Fallback engine.CardEstimator
	// Guard wraps every model call with panic recovery, the latency
	// budget, and estimate sanitization.
	Guard *Guard
	// Samples holds the per-table sample frames RBX featurizes (the Model
	// Loader's in-memory DataFrames): immutable, shared by every view and
	// concurrent call, each filtered and profiled per estimate without
	// being copied.
	Samples map[string]*sample.Frame
	// JoinMode selects FactorJoin's estimate or bound output.
	JoinMode factorjoin.Mode
	// Metrics is the shared observability block (never nil from
	// NewEstimator; shared by traced and strict views).
	Metrics *obs.EstimatorMetrics
	// Residual, when non-nil, multiplies final (whole-target) filter and
	// join estimates by a correction learned online from executed truth
	// (see internal/residual). Nil leaves every code path byte-identical
	// to an estimator without the corrector — the feature-flag guarantee.
	// Shared by traced and strict views, like Metrics.
	Residual *residual.Corrector

	// vec memoizes sanitized join-size estimates by canonical subset
	// identity, across queries (see vecCache).
	vec vecCache
	// trace, when non-nil, collects per-call spans (see WithTrace).
	trace *obs.Trace
}

// NewEstimator wires an estimator to a loaded inference engine.
func NewEstimator(infer *InferenceEngine, fallback engine.CardEstimator) *Estimator {
	est := &Estimator{
		Infer:    infer,
		Fallback: fallback,
		Guard:    NewGuard(GuardConfig{}),
		Samples:  map[string]*sample.Frame{},
		Metrics:  obs.NewEstimatorMetrics(),
		vec:      newVecCache(vecCacheLimit),
	}
	est.Metrics.JoinVec = est.vec.Metrics()
	// The subset memo derives everything from loaded model state, so the
	// registry invalidates it on every model load/enable/disable.
	infer.RegisterCache("joinvec", est.vec)
	return est
}

// WithTrace returns a view of the estimator that records every model call,
// fallback, and cache hit into tr. The view shares the registry, guard,
// metrics, and subset memo with the original, so traced traffic feeds the
// same breakers and counters as untraced traffic; the original estimator
// stays trace-free and safe for concurrent queries.
func (e *Estimator) WithTrace(tr *obs.Trace) engine.CardEstimator {
	return e.traced(tr)
}

func (e *Estimator) traced(tr *obs.Trace) *Estimator {
	view := *e
	view.trace = tr
	return &view
}

// traceTables is the Tables list of a single-table span — nil on untraced
// views, which then build neither the slice nor the span.
func (e *Estimator) traceTables(binding string) []string {
	if e.trace == nil {
		return nil
	}
	return []string{binding}
}

// traceBindings is traceTables for a table subset.
func (e *Estimator) traceBindings(tables []*engine.QueryTable) []string {
	if e.trace == nil {
		return nil
	}
	out := make([]string, len(tables))
	for i, t := range tables {
		out[i] = t.Binding
	}
	return out
}

// fallbackSpan records a fallback step and counts its source.
func (e *Estimator) fallbackSpan(op string, tables []string, cause error, value float64, start time.Time) {
	e.Metrics.Sources.Add(e.Fallback.Name(), 1)
	if e.trace == nil {
		return
	}
	s := obs.Span{
		Op:       op,
		Tables:   tables,
		Source:   e.Fallback.Name(),
		Outcome:  obs.OutcomeOK,
		Fallback: true,
		Value:    value,
		Duration: time.Since(start),
	}
	if cause != nil {
		s.Err = cause.Error()
	}
	e.trace.Add(s)
}

// modelSpan records one model call's verdict (traced views only; tables
// comes from traceTables/traceBindings and is nil otherwise).
func (e *Estimator) modelSpan(op string, tables []string, key, outcome string, value float64, err error, dur time.Duration) {
	if e.trace == nil {
		return
	}
	s := obs.Span{Op: op, Tables: tables, Key: key, Source: sourceOfKey(key), Outcome: outcome, Value: value, Duration: dur}
	if err != nil {
		s.Err = err.Error()
	}
	e.trace.Add(s)
}

// sourceOfKey maps a model key to its trace source name.
func sourceOfKey(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		return key[:i]
	}
	return key
}

// guarded runs one model call through the full degradation ladder: breaker
// admission (rung 2), the guard's panic recovery / latency budget /
// sanitization into [lo, hi] (rung 1), and breaker accounting. Any error
// means the caller must fall back to the traditional estimator. Every
// attempt lands in the metrics block and, on traced views, in the trace
// (tables is the span's table list: traceTables/traceBindings, nil when
// untraced).
func (e *Estimator) guarded(op string, tables []string, key string, lo, hi float64, fn func() (float64, error)) (estimate.Value, error) {
	start := time.Now()
	e.Metrics.ModelCalls.Add(1)
	if !e.Infer.Allow(key) {
		outcome := obs.OutcomeBreakerOpen
		if e.Infer.keyDisabled(key) {
			outcome = obs.OutcomeDisabled
		}
		err := &ModelError{Key: key, Outcome: outcome, Msg: fmt.Sprintf("core: %s unavailable (breaker open or disabled)", key)}
		e.Metrics.ModelFailures.Add(1)
		e.modelSpan(op, tables, key, outcome, 0, err, time.Since(start))
		return estimate.Value{}, err
	}
	raw, err := e.Guard.Do(key, fn)
	var v estimate.Value
	outcome := obs.OutcomeOK
	if err == nil {
		v, err = e.Guard.Sanitize(key, raw, lo, hi)
		if err == nil && v.Float() != raw {
			outcome = obs.OutcomeClamped
		}
	}
	if err != nil {
		e.Infer.RecordFailure(key)
		e.Metrics.ModelFailures.Add(1)
		e.modelSpan(op, tables, key, OutcomeOf(err), 0, err, time.Since(start))
		return estimate.Value{}, err
	}
	e.Infer.RecordSuccess(key)
	dur := time.Since(start)
	e.Metrics.ModelLatency.Observe(float64(dur.Nanoseconds()))
	e.Metrics.Sources.Add(sourceOfKey(key), 1)
	e.modelSpan(op, tables, key, outcome, v.Float(), nil, dur)
	return v, nil
}

// The planner sizes a whole join-order DP through ByteCard in one batch
// (and through its traced views — WithTrace returns the same concrete
// type).
var _ engine.BatchCardEstimator = (*Estimator)(nil)

// Name implements engine.CardEstimator.
func (e *Estimator) Name() string { return "bytecard" }

// Calls returns the total number of estimate requests served.
func (e *Estimator) Calls() int64 { return e.Metrics.Calls.Load() }

// Fallbacks returns how many requests fell back to the traditional path.
func (e *Estimator) Fallbacks() int64 { return e.Metrics.Fallbacks.Load() }

// CacheLen returns the resident subset-memo size.
func (e *Estimator) CacheLen() int { return e.vec.Len() }

func encoderFor(t *engine.QueryTable) expr.Encoder {
	return func(col string, d types.Datum) (float64, bool) {
		c := t.Table.ColByName(col)
		if c == nil {
			return d.AsFloat(), false
		}
		return c.EncodeDatum(d)
	}
}

// filterSelectivity evaluates a filter tree over the table's shard
// contexts, weighting shards by their population. The BN inference runs
// under the guard; the result is a sanitized selectivity in [0, 1].
func (e *Estimator) filterSelectivity(t *engine.QueryTable) (estimate.Value, error) {
	ctxs, ok := e.Infer.BNContexts(t.Name)
	if !ok {
		return estimate.Value{}, &ModelError{Key: "bn:" + t.Name, Outcome: obs.OutcomeMissing, Msg: fmt.Sprintf("core: no BN for table %s", t.Name)}
	}
	return e.guarded(obs.OpFilter, e.traceTables(t.Binding), "bn:"+t.Name, 0, 1, func() (float64, error) {
		enc := encoderFor(t)
		var rows, matched float64
		for _, ctx := range ctxs {
			sel, err := ctx.SelectivityNode(t.Filter, enc)
			if err != nil {
				return 0, err
			}
			rows += ctx.Model().Rows
			matched += ctx.Model().Rows * sel
		}
		if rows == 0 {
			return 0, fmt.Errorf("core: BN for %s has zero population", t.Name)
		}
		return matched / rows, nil
	})
}

// EstimateFilter implements engine.CardEstimator.
func (e *Estimator) EstimateFilter(t *engine.QueryTable) float64 {
	e.Metrics.Calls.Add(1)
	start := time.Now()
	sel, err := e.filterSelectivity(t)
	if err != nil {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateFilter(t)
		e.fallbackSpan(obs.OpFilter, e.traceTables(t.Binding), err, v, start)
		return v
	}
	rows := math.Max(1, float64(t.Table.NumRows()))
	est := estimate.Clamp(sel.Float()*float64(t.Table.NumRows()), 1, rows)
	if e.Residual == nil {
		return est.Float()
	}
	return e.correctFinal(obs.OpFilter, []*engine.QueryTable{t}, nil, est.Float(), 1, rows).Float()
}

// EstimateConj implements engine.CardEstimator (the column-order input).
func (e *Estimator) EstimateConj(t *engine.QueryTable, preds []expr.Pred) float64 {
	e.Metrics.Calls.Add(1)
	start := time.Now()
	ctxs, ok := e.Infer.BNContexts(t.Name)
	if !ok {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateConj(t, preds)
		e.fallbackSpan(obs.OpConj, e.traceTables(t.Binding), &ModelError{Key: "bn:" + t.Name, Outcome: obs.OutcomeMissing, Msg: "core: no BN for table " + t.Name}, v, start)
		return v
	}
	sel, err := e.guarded(obs.OpConj, e.traceTables(t.Binding), "bn:"+t.Name, 0, 1, func() (float64, error) {
		constraints := expr.BuildConstraints(preds, encoderFor(t))
		var rows, matched float64
		for _, ctx := range ctxs {
			s, err := ctx.SelectivityConj(constraints)
			if err != nil {
				return 0, err
			}
			rows += ctx.Model().Rows
			matched += ctx.Model().Rows * s
		}
		if rows == 0 {
			return 0, fmt.Errorf("core: BN for %s has zero population", t.Name)
		}
		return matched / rows, nil
	})
	if err != nil {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateConj(t, preds)
		e.fallbackSpan(obs.OpConj, e.traceTables(t.Binding), err, v, start)
		return v
	}
	return sel.Float()
}

// correctFinal multiplies a sanitized model estimate by the residual
// corrector's learned factor for the target's template, re-clamped into
// the same [lo, hi] the guard enforced. Only final (whole-target) model
// estimates flow through here — fallback values stay uncorrected (the
// corrector learns the models' residuals, not the sketch's), and strict
// paths (countSingle, which feeds Monitor probes and featurization) stay
// raw so the Monitor measures the models themselves.
func (e *Estimator) correctFinal(op string, tables []*engine.QueryTable, joins []engine.JoinCond, est, lo, hi float64) estimate.Value {
	key := engine.TemplateKey(tables, joins)
	v, factor := e.Residual.Correct(key, est)
	if factor != 1 && e.trace != nil {
		e.trace.Add(obs.Span{
			Op: obs.OpResidual, Tables: e.traceBindings(tables), Key: "residual",
			Source: "residual", Outcome: obs.OutcomeOK, Value: v,
		})
	}
	return estimate.Clamp(v, lo, hi)
}

// groupColumnKey names a group-key set for calibration lookup.
func groupColumnKey(table string, cols []string) string {
	return table + "." + strings.Join(cols, ",")
}

// EstimateGroupNDV implements engine.CardEstimator: RBX over the filtered
// sample profile of each table's group keys, multiplied across tables and
// capped by the estimated result size.
func (e *Estimator) EstimateGroupNDV(q *engine.Query) float64 {
	e.Metrics.Calls.Add(1)
	start := time.Now()
	// groupTables lists the grouped bindings for a span (traced views only).
	groupTables := func() []string {
		if e.trace == nil {
			return nil
		}
		seen := map[string]bool{}
		var out []string
		for _, g := range q.GroupBy {
			if !seen[g.Tab] {
				seen[g.Tab] = true
				out = append(out, g.Tab)
			}
		}
		return out
	}
	fallback := func(cause error) float64 {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateGroupNDV(q)
		e.fallbackSpan(obs.OpGroupNDV, groupTables(), cause, v, start)
		return v
	}
	model := e.Infer.RBX()
	if model == nil {
		return fallback(&ModelError{Key: "rbx", Outcome: obs.OutcomeMissing, Msg: "core: no RBX model loaded"})
	}
	perTable := map[string][]string{}
	var order []string
	for _, g := range q.GroupBy {
		if _, ok := perTable[g.Tab]; !ok {
			order = append(order, g.Tab)
		}
		perTable[g.Tab] = append(perTable[g.Tab], g.Col)
	}
	ndv := 1.0
	for _, binding := range order {
		cols := perTable[binding]
		t := q.TableByBinding(binding)
		frame := e.Samples[t.Name]
		if frame == nil || frame.Len() == 0 {
			return fallback(fmt.Errorf("core: no sample frame for table %s", t.Name))
		}
		key := groupColumnKey(t.Name, cols)
		if !e.Infer.RBXUsable(key) {
			return fallback(&ModelError{Key: "rbx:" + key, Outcome: obs.OutcomeDisabled, Msg: fmt.Sprintf("core: rbx disabled for %s", key)})
		}
		// Profiling runs before the guard: its pooled scratch must not
		// outlive a call the latency budget abandons.
		prof, err := frame.ProfileOf(t.Filter, cols...)
		if err != nil {
			return fallback(fmt.Errorf("core: sample profile for %s: %w", key, err))
		}
		if prof.SampleRows == 0 {
			continue // no sample survivors: contributes nothing measurable
		}
		// A column set's NDV cannot exceed the table population.
		est, err := e.guarded(obs.OpGroupNDV, e.traceTables(binding), "rbx", 1, math.Max(float64(frame.PopSize()), 1), func() (float64, error) {
			return model.EstimateNDVForColumn(key, prof), nil
		})
		if err != nil {
			return fallback(err)
		}
		ndv *= est.Float()
	}
	var out float64
	if len(q.Tables) == 1 {
		out = e.EstimateFilter(q.Tables[0])
	} else {
		out = e.EstimateJoin(q.Tables, q.Joins)
	}
	// Every factor is at least 1, so only the result-size cap can bind.
	res := estimate.Clamp(ndv, 1, math.Max(out, 1))
	// Summarize: the capping filter/join call above traced its own spans,
	// but the request's answer is RBX's — record it last so Trace.Source
	// attributes the NDV to the model that produced it.
	e.modelSpan(obs.OpGroupNDV, groupTables(), "rbx", obs.OutcomeOK, res.Float(), nil, time.Since(start))
	return res.Float()
}

// countSingle estimates one filtered table without fallback (used by the
// featurization Estimate API, which surfaces errors to its caller).
func (e *Estimator) countSingle(t *engine.QueryTable) (estimate.Value, error) {
	sel, err := e.filterSelectivity(t)
	if err != nil {
		return estimate.Value{}, err
	}
	rows := float64(t.Table.NumRows())
	return estimate.Clamp(sel.Float()*rows, 0, rows), nil
}
