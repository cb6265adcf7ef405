package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/factorjoin"
	"bytecard/internal/obs"
	"bytecard/internal/par"
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
	// Samples holds per-table sample frames for RBX featurization (the
	// Model Loader's in-memory DataFrames).
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

	// vec memoizes the optimizer's per (table instance, key column)
	// filtered bucket vectors so join planning stays O(tables) BN
	// inferences instead of O(2^tables).
	vec vecCache
	// trace, when non-nil, collects per-call spans (see WithTrace).
	trace *obs.Trace
}

type vecKey struct {
	table *engine.QueryTable
	col   string
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
	// The vector/subset cache derives everything from loaded model state,
	// so the registry invalidates it on every model load/enable/disable.
	infer.RegisterCache("joinvec", est.vec)
	return est
}

// WithTrace returns a view of the estimator that records every model call,
// fallback, and cache hit into tr. The view shares the registry, guard,
// metrics, and vector cache with the original, so traced traffic feeds the
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

// span records one trace step, skipping all work when tracing is off.
func (e *Estimator) span(s obs.Span) {
	if e.trace == nil {
		return
	}
	e.trace.Add(s)
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
// attempt lands in the metrics block and, on traced views, in the trace.
func (e *Estimator) guarded(op string, tables []string, key string, lo, hi float64, fn func() (float64, error)) (float64, error) {
	start := time.Now()
	e.Metrics.ModelCalls.Add(1)
	if !e.Infer.Allow(key) {
		outcome := obs.OutcomeBreakerOpen
		if e.Infer.Disabled(key) {
			outcome = obs.OutcomeDisabled
		}
		err := &ModelError{Key: key, Outcome: outcome, Msg: fmt.Sprintf("core: %s unavailable (breaker open or disabled)", key)}
		e.Metrics.ModelFailures.Add(1)
		e.span(obs.Span{Op: op, Tables: tables, Key: key, Source: sourceOfKey(key), Outcome: outcome, Err: err.Msg, Duration: time.Since(start)})
		return 0, err
	}
	raw, err := e.Guard.Do(key, fn)
	// v only ever holds sanitized values (the raw model output is passed to
	// Sanitize and discarded), so every return below is in [lo, hi].
	var v float64
	outcome := obs.OutcomeOK
	if err == nil {
		v, err = e.Guard.Sanitize(key, raw, lo, hi)
		if err == nil && v != raw {
			outcome = obs.OutcomeClamped
		}
	}
	if err != nil {
		e.Infer.RecordFailure(key)
		e.Metrics.ModelFailures.Add(1)
		e.span(obs.Span{Op: op, Tables: tables, Key: key, Source: sourceOfKey(key), Outcome: OutcomeOf(err), Err: err.Error(), Duration: time.Since(start)})
		return 0, err
	}
	e.Infer.RecordSuccess(key)
	dur := time.Since(start)
	e.Metrics.ModelLatency.Observe(float64(dur.Nanoseconds()))
	e.Metrics.Sources.Add(sourceOfKey(key), 1)
	e.span(obs.Span{Op: op, Tables: tables, Key: key, Source: sourceOfKey(key), Outcome: outcome, Value: v, Duration: dur})
	return v, nil
}

// The planner batches its DP ranks through ByteCard (and its traced
// views — WithTrace returns the same concrete type).
var _ engine.BatchCardEstimator = (*Estimator)(nil)

// Name implements engine.CardEstimator.
func (e *Estimator) Name() string { return "bytecard" }

// Calls returns the total number of estimate requests served.
func (e *Estimator) Calls() int64 { return e.Metrics.Calls.Load() }

// Fallbacks returns how many requests fell back to the traditional path.
func (e *Estimator) Fallbacks() int64 { return e.Metrics.Fallbacks.Load() }

// CacheLen returns the resident join-vector cache size.
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
func (e *Estimator) filterSelectivity(t *engine.QueryTable) (float64, error) {
	ctxs, ok := e.Infer.BNContexts(t.Name)
	if !ok {
		return 0, &ModelError{Key: "bn:" + t.Name, Outcome: obs.OutcomeMissing, Msg: fmt.Sprintf("core: no BN for table %s", t.Name)}
	}
	return e.guarded(obs.OpFilter, []string{t.Binding}, "bn:"+t.Name, 0, 1, func() (float64, error) {
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
		e.fallbackSpan(obs.OpFilter, []string{t.Binding}, err, v, start)
		return v
	}
	rows := math.Max(1, float64(t.Table.NumRows()))
	est := math.Max(1, sel*float64(t.Table.NumRows()))
	if e.Residual == nil {
		return est
	}
	return e.correctFinal(obs.OpFilter, []*engine.QueryTable{t}, nil, est, 1, rows)
}

// EstimateConj implements engine.CardEstimator (the column-order input).
func (e *Estimator) EstimateConj(t *engine.QueryTable, preds []expr.Pred) float64 {
	e.Metrics.Calls.Add(1)
	start := time.Now()
	ctxs, ok := e.Infer.BNContexts(t.Name)
	if !ok {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateConj(t, preds)
		e.fallbackSpan(obs.OpConj, []string{t.Binding}, &ModelError{Key: "bn:" + t.Name, Outcome: obs.OutcomeMissing, Msg: "core: no BN for table " + t.Name}, v, start)
		return v
	}
	sel, err := e.guarded(obs.OpConj, []string{t.Binding}, "bn:"+t.Name, 0, 1, func() (float64, error) {
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
		e.fallbackSpan(obs.OpConj, []string{t.Binding}, err, v, start)
		return v
	}
	return sel
}

// jointVector returns the filtered per-bucket count vector of keyCol under
// the table's filter tree, applying inclusion–exclusion for OR filters and
// summing across shard models.
func (e *Estimator) jointVector(t *engine.QueryTable, keyCol string, buckets int) ([]float64, error) {
	ctxs, ok := e.Infer.BNContexts(t.Name)
	if !ok {
		return nil, &ModelError{Key: "bn:" + t.Name, Outcome: obs.OutcomeMissing, Msg: fmt.Sprintf("core: no BN for table %s", t.Name)}
	}
	enc := encoderFor(t)
	terms := []expr.IETerm{{Sign: 1}}
	if t.Filter != nil {
		var err error
		terms, err = t.Filter.InclusionExclusion()
		if err != nil {
			return nil, err
		}
	}
	scale := float64(t.Table.NumRows())
	var popRows float64
	for _, ctx := range ctxs {
		popRows += ctx.Model().Rows
	}
	if popRows == 0 {
		return nil, fmt.Errorf("core: BN for %s has zero population", t.Name)
	}
	out := make([]float64, buckets)
	for _, ctx := range ctxs {
		weight := ctx.Model().Rows / popRows * scale
		for _, term := range terms {
			vec, err := ctx.JointWithColumn(expr.BuildConstraints(term.Preds, enc), keyCol)
			if err != nil {
				return nil, err
			}
			if len(vec) != buckets {
				return nil, fmt.Errorf("core: BN key %s.%s has %d bins, buckets want %d", t.Name, keyCol, len(vec), buckets)
			}
			for b, v := range vec {
				out[b] += term.Sign * weight * v
			}
		}
	}
	for b := range out {
		if out[b] < 0 {
			out[b] = 0
		}
	}
	return out, nil
}

func bindings(tables []*engine.QueryTable) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		out[i] = t.Binding
	}
	return out
}

// joinModelCall builds the FactorJoin invocation for one table subset: the
// closure the guard runs and the sanitizer's upper bound (the Cartesian
// product of the joined relations — an inner join can never exceed it).
// The closure copies nothing from tables/joins lazily, so the caller's
// slices may be reused once it has been built. memo, when non-nil, shares
// factor-graph sub-computations (leaf messages, NDV vectors, conditional
// matrices, domains) across every call built with it — the batch path's
// one-pass-per-factor amortization; results are bit-identical either way.
func (e *Estimator) joinModelCall(fj *factorjoin.Model, tables []*engine.QueryTable, joins []engine.JoinCond, memo *factorjoin.Memo) (fn func() (float64, error), upper float64) {
	byBinding := map[string]*engine.QueryTable{}
	fjTables := make([]factorjoin.QueryTable, len(tables))
	for i, t := range tables {
		fjTables[i] = factorjoin.QueryTable{Binding: t.Binding, Name: t.Name}
		byBinding[t.Binding] = t
	}
	conds := make([]factorjoin.Cond, len(joins))
	for i, j := range joins {
		conds[i] = factorjoin.Cond{LBind: j.LeftTab, LCol: j.LeftCol, RBind: j.RightTab, RCol: j.RightCol}
	}
	src := func(binding, table, column string, bounds []float64) ([]float64, error) {
		t := byBinding[binding]
		key := vecKey{table: t, col: column}
		if vec, ok := e.vec.get(key); ok {
			e.span(obs.Span{Op: obs.OpVector, Tables: []string{binding}, Key: "bn:" + t.Name, Source: "bn", Outcome: obs.OutcomeOK, CacheHit: true})
			return vec, nil
		}
		vecStart := time.Now()
		vec, err := e.jointVector(t, column, len(bounds)-1)
		if err != nil {
			return nil, err
		}
		if e.JoinMode == factorjoin.ModeEstimate {
			// Sub-half-row bucket mass is smoothing noise, but a
			// high-fanout bucket amplifies it by orders of magnitude;
			// floor it (bound mode keeps every epsilon to stay sound).
			for b, v := range vec {
				if v < 0.5 {
					vec[b] = 0
				}
			}
		}
		e.vec.put(key, vec)
		e.span(obs.Span{Op: obs.OpVector, Tables: []string{binding}, Key: "bn:" + t.Name, Source: "bn", Outcome: obs.OutcomeOK, Duration: time.Since(vecStart)})
		return vec, nil
	}
	return func() (float64, error) {
		return fj.EstimateWithMemo(fjTables, conds, src, e.JoinMode, memo)
	}, cartesianUpper(tables)
}

// EstimateJoin implements engine.CardEstimator via FactorJoin inference
// over BN-conditioned bucket counts.
func (e *Estimator) EstimateJoin(tables []*engine.QueryTable, joins []engine.JoinCond) float64 {
	e.Metrics.Calls.Add(1)
	start := time.Now()
	fj := e.Infer.FactorJoin()
	if fj == nil {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateJoin(tables, joins)
		e.fallbackSpan(obs.OpJoin, bindings(tables), &ModelError{Key: "factorjoin", Outcome: obs.OutcomeMissing, Msg: "core: no FactorJoin model loaded"}, v, start)
		return v
	}
	fn, upper := e.joinModelCall(fj, tables, joins, nil)
	est, err := e.guarded(obs.OpJoin, bindings(tables), "factorjoin", 1, upper, fn)
	if err != nil {
		e.Metrics.Fallbacks.Add(1)
		v := e.Fallback.EstimateJoin(tables, joins)
		e.fallbackSpan(obs.OpJoin, bindings(tables), err, v, start)
		return v
	}
	if e.Residual == nil {
		return est
	}
	return e.correctFinal(obs.OpJoin, tables, joins, est, 1, upper)
}

// correctFinal multiplies a sanitized model estimate by the residual
// corrector's learned factor for the target's template, re-clamped into
// the same [lo, hi] the guard enforced. Only final (whole-target) model
// estimates flow through here — fallback values stay uncorrected (the
// corrector learns the models' residuals, not the sketch's), and strict
// paths (countSingle, which feeds Monitor probes and featurization) stay
// raw so the Monitor measures the models themselves.
func (e *Estimator) correctFinal(op string, tables []*engine.QueryTable, joins []engine.JoinCond, est, lo, hi float64) float64 {
	key := engine.TemplateKey(tables, joins)
	v, factor := e.Residual.Correct(key, est)
	if factor != 1 && e.trace != nil {
		e.trace.Add(obs.Span{
			Op: obs.OpResidual, Tables: bindings(tables), Key: "residual",
			Source: "residual", Outcome: obs.OutcomeOK, Value: v,
		})
	}
	return clampEst(v, lo, hi)
}

// cartesianUpper is the sanitizer's join-size upper bound: the Cartesian
// product of the joined relations — an inner join can never exceed it.
func cartesianUpper(tables []*engine.QueryTable) float64 {
	upper := 1.0
	for _, t := range tables {
		upper *= math.Max(float64(t.Table.NumRows()), 1)
	}
	return upper
}

// fanOutWorkers decides how many workers a batch of n guarded model
// calls is spread across: the requested parallelism clamped to the
// machine's effective parallelism (a 4-worker fan-out on a 1-CPU box is
// pure scheduling overhead — the regression the PR 4 bench caught), then
// degraded to the serial loop when the measured fan-out cost cannot be
// recovered: fanning out saves at most n·mean·(1−1/w) of model-call wall
// time and costs one par.Overhead. Worker count never affects values —
// items are independent and every result is deterministic — so this is a
// pure wall-clock decision.
func (e *Estimator) fanOutWorkers(n, requested int) int {
	w := par.Effective(requested)
	if w <= 1 || n <= 1 {
		return 1
	}
	mean := e.Metrics.ModelLatency.Mean()
	if mean <= 0 {
		return w // no latency history yet: only the machine clamp gates
	}
	saved := float64(n) * mean * (1 - 1/float64(w))
	if saved < float64(par.Overhead().Nanoseconds()) {
		return 1
	}
	return w
}

// EstimateJoinBatch implements engine.BatchCardEstimator: one DP rank of
// join subsets estimated under a single breaker admission and a single
// trace span (with per-item Sources). The batch makes one pass over each
// model's factors instead of one per item: items whose canonical subset
// key is memoized in the vector cache are answered without touching the
// model at all (the memo persists across ranks and across Plan calls),
// and the remaining items share one factorjoin.Memo so every leaf
// message, effective-NDV vector, conditional matrix, and domain vector is
// computed once per batch. Model calls are fanned across at most
// parallelism workers when the measured break-even says fanning out pays
// (see fanOutWorkers). Each computed item runs the same guard rungs as a
// sequential EstimateJoin — panic recovery, latency budget, sanitization
// into [1, cartesian-product] — and items that fail take the traditional
// estimator's value, so the batch result is element-wise identical to
// sequential calls. Fallback calls and breaker accounting run serially
// after the fan-out: engine.CardEstimator implementations are not promised
// to be concurrency-safe.
func (e *Estimator) EstimateJoinBatch(items []engine.JoinBatchItem, parallelism int) []float64 {
	out := make([]float64, len(items))
	if len(items) == 0 {
		return out
	}
	start := time.Now()
	e.Metrics.Calls.Add(int64(len(items)))
	sources := make([]string, len(items))
	hits := 0
	batchSpan := func(outcome, errMsg string) {
		if e.trace == nil {
			return
		}
		e.trace.Add(obs.Span{
			Op:       obs.OpJoinBatch,
			Key:      "factorjoin",
			Source:   "factorjoin",
			Outcome:  outcome,
			CacheHit: hits == len(items),
			Workers:  parallelism,
			Sources:  sources,
			Value:    float64(len(items)),
			Err:      errMsg,
			Duration: time.Since(start),
		})
	}
	fallbackAll := func(cause *ModelError) []float64 {
		e.Metrics.ModelCalls.Add(int64(len(items)))
		e.Metrics.ModelFailures.Add(int64(len(items)))
		e.Metrics.Fallbacks.Add(int64(len(items)))
		for k, it := range items {
			out[k] = e.Fallback.EstimateJoin(it.Tables, it.Conds)
			sources[k] = e.Fallback.Name()
			e.Metrics.Sources.Add(e.Fallback.Name(), 1)
		}
		batchSpan(cause.Outcome, cause.Msg)
		return out
	}
	fj := e.Infer.FactorJoin()
	if fj == nil {
		return fallbackAll(&ModelError{Key: "factorjoin", Outcome: obs.OutcomeMissing, Msg: "core: no FactorJoin model loaded"})
	}
	if !e.Infer.Allow("factorjoin") {
		outcome := obs.OutcomeBreakerOpen
		if e.Infer.Disabled("factorjoin") {
			outcome = obs.OutcomeDisabled
		}
		return fallbackAll(&ModelError{Key: "factorjoin", Outcome: outcome, Msg: "core: factorjoin unavailable (breaker open or disabled)"})
	}
	// Resolve keyed items from the subset memo first: the cached value is
	// the sanitized estimate a fresh model call would return (determinism
	// makes the replay byte-identical), so hits skip the guard and the
	// model entirely.
	need := make([]int, 0, len(items))
	for k := range items {
		if key := items[k].Key; key != "" {
			if v, ok := e.vec.getSubset(key); ok {
				// The memo holds uncorrected sanitized estimates (published
				// below, pre-correction), so hits and computed items apply
				// the same residual correction and stay byte-identical to
				// sequential EstimateJoin calls.
				if e.Residual != nil {
					v = e.correctFinal(obs.OpJoinBatch, items[k].Tables, items[k].Conds, v, 1, cartesianUpper(items[k].Tables))
				}
				out[k] = v
				sources[k] = "factorjoin"
				e.Metrics.Sources.Add("factorjoin", 1)
				hits++
				continue
			}
		}
		need = append(need, k)
	}
	if len(need) == 0 {
		batchSpan(obs.OutcomeOK, "")
		return out
	}
	e.Metrics.ModelCalls.Add(int64(len(need)))
	errs := make([]error, len(items))
	clamped := make([]bool, len(items))
	memo := factorjoin.NewMemo()
	par.Do(len(need), e.fanOutWorkers(len(need), parallelism), func(i int) {
		k := need[i]
		fn, upper := e.joinModelCall(fj, items[k].Tables, items[k].Conds, memo)
		raw, err := e.Guard.Do("factorjoin", fn)
		if err != nil {
			errs[k] = err
			return
		}
		v, err := e.Guard.Sanitize("factorjoin", raw, 1, upper)
		if err != nil {
			errs[k] = err
			return
		}
		clamped[k] = v != raw
		out[k] = v
	})
	// Serial epilogue: breaker accounting, per-item fallbacks, metrics,
	// and subset-memo publication for the keyed successes.
	outcome := obs.OutcomeOK
	var failures, fallbacks int64
	for _, k := range need {
		if errs[k] != nil {
			e.Infer.RecordFailure("factorjoin")
			failures++
			fallbacks++
			out[k] = e.Fallback.EstimateJoin(items[k].Tables, items[k].Conds)
			sources[k] = e.Fallback.Name()
			e.Metrics.Sources.Add(e.Fallback.Name(), 1)
			continue
		}
		e.Infer.RecordSuccess("factorjoin")
		sources[k] = "factorjoin"
		e.Metrics.Sources.Add("factorjoin", 1)
		if clamped[k] {
			outcome = obs.OutcomeClamped
		}
		if items[k].Key != "" {
			e.vec.putSubset(items[k].Key, out[k])
		}
		if e.Residual != nil {
			out[k] = e.correctFinal(obs.OpJoinBatch, items[k].Tables, items[k].Conds, out[k], 1, cartesianUpper(items[k].Tables))
		}
	}
	e.Metrics.ModelFailures.Add(failures)
	e.Metrics.Fallbacks.Add(fallbacks)
	e.Metrics.ModelLatency.Observe(float64(time.Since(start).Nanoseconds()))
	var errMsg string
	if failures > 0 {
		for _, err := range errs {
			if err != nil {
				errMsg = err.Error()
				break
			}
		}
	}
	batchSpan(outcome, errMsg)
	return out
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
	groupTables := func() []string {
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
		filtered := frame
		if t.Filter != nil {
			idx := map[string]int{}
			for i, c := range frame.Columns() {
				idx[c] = i
			}
			filtered = frame.Filter(func(row []types.Datum) bool {
				return t.Filter.Eval(func(_, col string) types.Datum { return row[idx[col]] })
			})
		}
		if filtered.Len() == 0 {
			continue // no sample survivors: contributes nothing measurable
		}
		// A column set's NDV cannot exceed the table population.
		est, err := e.guarded(obs.OpGroupNDV, []string{binding}, "rbx", 1, math.Max(float64(frame.PopSize()), 1), func() (float64, error) {
			return model.EstimateNDVForColumn(key, filtered.ProfileOf(cols...)), nil
		})
		if err != nil {
			return fallback(err)
		}
		ndv *= est
	}
	var out float64
	if len(q.Tables) == 1 {
		out = e.EstimateFilter(q.Tables[0])
	} else {
		out = e.EstimateJoin(q.Tables, q.Joins)
	}
	res := math.Min(ndv, math.Max(out, 1))
	// Summarize: the capping filter/join call above traced its own spans,
	// but the request's answer is RBX's — record it last so Trace.Source
	// attributes the NDV to the model that produced it.
	e.span(obs.Span{Op: obs.OpGroupNDV, Tables: groupTables(), Key: "rbx", Source: "rbx", Outcome: obs.OutcomeOK, Value: res, Duration: time.Since(start)})
	return res
}

// clampEst bounds an estimate to [lo, hi] before it leaves the estimator —
// the arithmetic-after-the-ladder counterpart of Guard.Sanitize, and the
// clamp helper the estclamp analyzer recognizes. NaN collapses to lo.
func clampEst(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	return math.Min(hi, math.Max(lo, v))
}

// countSingle estimates one filtered table without fallback (used by the
// featurization Estimate API, which surfaces errors to its caller). The
// selectivity is already sanitized into [0, 1], so the clamp is a no-op
// today; it guarantees the product stays in-range if that invariant moves.
func (e *Estimator) countSingle(t *engine.QueryTable) (float64, error) {
	sel, err := e.filterSelectivity(t)
	if err != nil {
		return 0, err
	}
	rows := float64(t.Table.NumRows())
	return clampEst(sel*rows, 0, rows), nil
}

// PredictCostMillis runs the learned cost model under the guard and
// breaker. ok is false when the model is missing, tripped, or produced an
// invalid latency — callers should then keep the heuristic cost.
func (e *Estimator) PredictCostMillis(features []float64) (float64, bool) {
	model := e.Infer.CostModel()
	if model == nil {
		return 0, false
	}
	ms, err := e.guarded(obs.OpCost, nil, "costmodel", 0, math.MaxFloat64, func() (float64, error) {
		return model.PredictMillis(features), nil
	})
	if err != nil {
		return 0, false
	}
	return ms, true
}
