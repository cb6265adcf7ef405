package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/estimate"
	"bytecard/internal/expr"
	"bytecard/internal/factorjoin"
	"bytecard/internal/obs"
	"bytecard/internal/par"
)

// joinUniverse is the table instances and join conditions batch items
// select from: those of the widest item — for the planner's batch, the
// query's tables and joins in query order. Items become bitmask pairs over it, the subset-memo keys are
// assembled from per-table tokens rendered once, and every item that has
// to be computed shares one compiled factorjoin.Graph (bucket vectors and
// subtree messages computed once per universe).
type joinUniverse struct {
	tables []*engine.QueryTable
	conds  []engine.JoinCond
	// tokens[i] is tables[i]'s part of a subset key: binding, physical
	// name and full filter text (constants included, so only byte-identical
	// filters share a key). Rendered on the first key.
	tokens []string
	// graph is compiled on the first item that misses the memo; err is why
	// it could not be.
	graph *factorjoin.Graph
	err   error
	// keys[i] holds the bucket vectors of tables[i]'s join columns, laid
	// out with the graph.
	keys []keyVectors
}

// keyVectors is one table's filtered per-bucket counts for every column the
// universe's conditions join it on. The graph's first request for any of
// them runs one BN pass per (inclusion–exclusion term, shard) that yields
// them all; requests racing it wait rather than repeat it, and its errors
// are kept like its vectors.
type keyVectors struct {
	once sync.Once
	cols []keyVector
}

// keyVector is one join column's bucket vector, or why it has none.
type keyVector struct {
	col string
	cnt []float64
	err error
}

// layOutKeys lists each table's distinct join columns in first-seen
// condition order, all carved from one array.
func (u *joinUniverse) layOutKeys() {
	u.keys = make([]keyVectors, len(u.tables))
	// Bindings are distinct, so each condition side lands in one table:
	// the array never grows and the carved slices stay valid.
	all := make([]keyVector, 0, 2*len(u.conds))
	for i, t := range u.tables {
		start := len(all)
		for c := range u.conds {
			cond := &u.conds[c]
			for _, side := range [2][2]string{{cond.LeftTab, cond.LeftCol}, {cond.RightTab, cond.RightCol}} {
				if side[0] != t.Binding {
					continue
				}
				seen := false
				for _, k := range all[start:] {
					seen = seen || k.col == side[1]
				}
				if !seen {
					all = append(all, keyVector{col: side[1]})
				}
			}
		}
		u.keys[i].cols = all[start:len(all):len(all)]
	}
}

// place returns the masks selecting the item's tables and conditions from
// u. ok is false when the item is not a selection from u in u's order: ref
// order decides float accumulation order, so an item listing the same
// tables or conditions in another order is estimated in a universe of its
// own, as is one naming other instances.
func (u *joinUniverse) place(it *engine.JoinBatchItem) (tables, conds uint64, ok bool) {
	i := 0
	for _, t := range it.Tables {
		for i < len(u.tables) && u.tables[i] != t {
			i++
		}
		if i == len(u.tables) {
			return 0, 0, false
		}
		tables |= 1 << i
		i++
	}
	i = 0
	for _, c := range it.Conds {
		for i < len(u.conds) && u.conds[i] != c {
			i++
		}
		if i == len(u.conds) {
			return 0, 0, false
		}
		conds |= 1 << i
		i++
	}
	return tables, conds, true
}

// placeAll assigns every item its universe and masks. Universes are seeded
// from the widest items first (for the planner's batch, the full join in
// query order), so every narrower selection from the same tables finds its
// universe already complete, wherever the query lists its hub: one query,
// one universe, one compiled graph. An item that fits no universe and
// cannot seed one gets an error.
func placeAll(items []engine.JoinBatchItem, reqs []joinRequest) {
	var universes []*joinUniverse
	widest := 0
	for k := range items {
		widest = max(widest, len(items[k].Tables))
	}
	for w := widest; w >= 0; w-- {
		for k := range items {
			it := &items[k]
			if len(it.Tables) != w {
				continue
			}
			r := &reqs[k]
			for _, u := range universes {
				if tm, cm, ok := u.place(it); ok {
					*r = joinRequest{u: u, tables: tm, conds: cm}
					break
				}
			}
			if r.u == nil {
				if r.err = seedable(it); r.err != nil {
					continue
				}
				// Copied: a model call the latency guard abandoned may
				// outlive the caller's slices.
				u := &joinUniverse{
					tables: append([]*engine.QueryTable(nil), it.Tables...),
					conds:  append([]engine.JoinCond(nil), it.Conds...),
				}
				universes = append(universes, u)
				tm, cm, _ := u.place(it)
				*r = joinRequest{u: u, tables: tm, conds: cm}
			}
		}
	}
}

// seedable reports why an item cannot define a universe: it is too wide to
// mask, or it names one binding twice — the graph resolves a binding to one
// table, so narrower items sharing the universe would be misread.
func seedable(it *engine.JoinBatchItem) error {
	if len(it.Tables) > factorjoin.MaxGraph || len(it.Conds) > factorjoin.MaxGraph {
		return fmt.Errorf("core: join of %d tables and %d conditions cannot be compiled", len(it.Tables), len(it.Conds))
	}
	for i, t := range it.Tables {
		for _, o := range it.Tables[:i] {
			if o.Binding == t.Binding {
				return fmt.Errorf("core: join lists binding %s twice", t.Binding)
			}
		}
	}
	return nil
}

// key is the canonical identity of a subset of u under model generation
// gen: gen, its tables' tokens, then its conditions, both in u's order. Two
// items anywhere — across batches, across queries — get the same key only
// under one generation, with textually identical tables, filters and join
// conditions listed in the same order, so the memoized estimate of one is
// exactly what the model would return for the other.
func (u *joinUniverse) key(gen, tables, conds uint64) string {
	for len(u.tokens) < len(u.tables) {
		t := u.tables[len(u.tokens)]
		filter := ""
		if t.Filter != nil {
			filter = t.Filter.String()
		}
		u.tokens = append(u.tokens, t.Binding+"\x1f"+t.Name+"\x1f"+filter+"\x1e")
	}
	size := 9
	for m := tables; m != 0; m &= m - 1 {
		size += len(u.tokens[bits.TrailingZeros64(m)])
	}
	for m := conds; m != 0; m &= m - 1 {
		c := &u.conds[bits.TrailingZeros64(m)]
		size += len(c.LeftTab) + len(c.LeftCol) + len(c.RightTab) + len(c.RightCol) + 4
	}
	var b strings.Builder
	b.Grow(size)
	var g [8]byte
	b.Write(binary.LittleEndian.AppendUint64(g[:0], gen))
	for m := tables; m != 0; m &= m - 1 {
		b.WriteString(u.tokens[bits.TrailingZeros64(m)])
	}
	b.WriteByte('\x1d')
	for m := conds; m != 0; m &= m - 1 {
		c := &u.conds[bits.TrailingZeros64(m)]
		b.WriteString(c.LeftTab)
		b.WriteByte('\x1f')
		b.WriteString(c.LeftCol)
		b.WriteByte('\x1f')
		b.WriteString(c.RightTab)
		b.WriteByte('\x1f')
		b.WriteString(c.RightCol)
		b.WriteByte('\x1e')
	}
	return b.String()
}

// compile builds u's factor graph against fj over src.
func (u *joinUniverse) compile(fj *factorjoin.Model, src factorjoin.CountSource, mode factorjoin.Mode) {
	tables := make([]factorjoin.QueryTable, len(u.tables))
	for i, t := range u.tables {
		tables[i] = factorjoin.QueryTable{Binding: t.Binding, Name: t.Name}
	}
	conds := make([]factorjoin.Cond, len(u.conds))
	for i, j := range u.conds {
		conds[i] = factorjoin.Cond{LBind: j.LeftTab, LCol: j.LeftCol, RBind: j.RightTab, RCol: j.RightCol}
	}
	u.graph, u.err = fj.Compile(tables, conds, src, mode)
}

// keySource is the CountSource of u's graph: a column's vector comes from
// its table's one BN pass over all of the table's join columns.
func (e *Estimator) keySource(u *joinUniverse) factorjoin.CountSource {
	u.layOutKeys()
	return func(binding, _, column string, bounds []float64) ([]float64, error) {
		var vecStart time.Time
		if e.trace != nil {
			vecStart = time.Now()
		}
		for i, t := range u.tables {
			if t.Binding != binding {
				continue
			}
			kv := &u.keys[i]
			kv.once.Do(func() { e.bnKeyPass(t, kv.cols) })
			for k := range kv.cols {
				v := &kv.cols[k]
				if v.col != column {
					continue
				}
				if v.err != nil {
					return nil, v.err
				}
				if len(v.cnt) != len(bounds)-1 {
					return nil, fmt.Errorf("core: BN key %s.%s has %d bins, buckets want %d", t.Name, column, len(v.cnt), len(bounds)-1)
				}
				if e.trace != nil {
					e.trace.Add(obs.Span{Op: obs.OpVector, Tables: []string{binding}, Key: "bn:" + t.Name, Source: "bn", Outcome: obs.OutcomeOK, Duration: time.Since(vecStart)})
				}
				return v.cnt, nil
			}
		}
		return nil, fmt.Errorf("core: %s.%s is not a join column of the compiled graph", binding, column)
	}
}

// bnPassHook, when set (by tests), sees the table of every BN pass
// bnKeyPass runs; an error it returns fails the pass.
var bnPassHook func(table string) error

// wholeTable is the inclusion–exclusion expansion of an absent filter.
var wholeTable = []expr.IETerm{{Sign: 1}}

// bnKeyPass fills cols with t's per-bucket counts of each column under its
// filter tree: P(term ∧ col = b) from one JointWithColumns call per
// (inclusion–exclusion term, shard) for all columns, each column summed in
// shard → term order with the term's sign and the shard's population
// share, negative sums clamped to zero and, in estimate mode, sub-half-row
// buckets floored. A column fails alone where a shard's model lacks it.
func (e *Estimator) bnKeyPass(t *engine.QueryTable, cols []keyVector) {
	fail := func(err error) {
		for k := range cols {
			if cols[k].err == nil {
				cols[k].err = err
			}
		}
	}
	ctxs, err := e.bnFor(t.Name)
	if err != nil {
		fail(err)
		return
	}
	terms := wholeTable
	var enc expr.Encoder
	if t.Filter != nil {
		if terms, err = t.Filter.InclusionExclusion(); err != nil {
			fail(err)
			return
		}
		enc = encoderFor(t)
	}
	scale := float64(t.Table.NumRows())
	var popRows float64
	for _, ctx := range ctxs {
		popRows += ctx.Model().Rows
	}
	if popRows == 0 {
		fail(fmt.Errorf("core: BN for %s has zero population", t.Name))
		return
	}
	var nameBuf [4]string
	var liveBuf [4]int
	for _, ctx := range ctxs {
		weight := ctx.Model().Rows / popRows * scale
		names, live := nameBuf[:0], liveBuf[:0]
		for k := range cols {
			c := &cols[k]
			if c.err != nil {
				continue
			}
			if ctx.Model().ColIndex(c.col) < 0 {
				c.err = fmt.Errorf("core: BN for %s has no column %q", t.Name, c.col)
				continue
			}
			names, live = append(names, c.col), append(live, k)
		}
		if len(names) == 0 {
			return
		}
		for _, term := range terms {
			if bnPassHook != nil {
				if err := bnPassHook(t.Name); err != nil {
					fail(err)
					return
				}
			}
			vecs, err := ctx.JointWithColumns(expr.BuildConstraints(term.Preds, enc), names)
			if err != nil {
				fail(err)
				return
			}
			for r, k := range live {
				c := &cols[k]
				vec := vecs[r]
				switch {
				case c.err != nil:
				case c.cnt == nil:
					// The first vector is fresh: it becomes the sum,
					// zeroed as it is read so the sum starts from +0.
					c.cnt = vec
					for b, v := range vec {
						vec[b] = 0
						vec[b] += term.Sign * weight * v
					}
				case len(vec) != len(c.cnt):
					c.err = fmt.Errorf("core: BN key %s.%s has %d bins in one shard, %d in another", t.Name, c.col, len(c.cnt), len(vec))
				default:
					for b, v := range vec {
						c.cnt[b] += term.Sign * weight * v
					}
				}
			}
		}
	}
	// Sub-half-row bucket mass is smoothing noise, but a high-fanout
	// bucket amplifies it by orders of magnitude: estimate mode floors it
	// (bound mode keeps every epsilon to stay sound).
	floor := 0.0
	if e.JoinMode == factorjoin.ModeEstimate {
		floor = 0.5
	}
	for k := range cols {
		for b, v := range cols[k].cnt {
			if v < floor {
				cols[k].cnt[b] = 0
			}
		}
	}
}

// joinRequest is one batch item placed in its universe, and what became of
// it.
type joinRequest struct {
	u             *joinUniverse
	tables, conds uint64
	key           string
	// Filled by the model call.
	err     error
	clamped bool
	dur     time.Duration
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

// EstimateJoin implements engine.CardEstimator via FactorJoin inference
// over BN-conditioned bucket counts: a batch of one, so a subset the
// planner's batch (or an earlier call) already sized is answered from the
// subset memo.
func (e *Estimator) EstimateJoin(tables []*engine.QueryTable, joins []engine.JoinCond) float64 {
	var out [1]float64
	e.view(nil).joinBatch(obs.OpJoin, []engine.JoinBatchItem{{Tables: tables, Conds: joins}}, 1, out[:])
	return out[0]
}

// EstimateJoinBatch implements engine.BatchCardEstimator: every join
// subset of one join-order DP, estimated under a single breaker admission.
// Items whose canonical identity is in the subset memo are answered
// without touching the model (the memo persists across batches and across
// queries); the rest share one compiled factor graph per universe, so each
// table's bucket vectors and each subtree's message are computed once for
// the whole DP, and are fanned across at most parallelism workers when the
// measured break-even says fanning out pays (see fanOutWorkers). Each
// computed item runs the same guard rungs as a lone EstimateJoin — panic
// recovery, latency budget, sanitization into [1, cartesian-product] — and
// items that fail take the traditional estimator's value, so the batch
// result is element-wise identical to sequential calls. Fallback calls and
// breaker accounting run serially after the fan-out: engine.CardEstimator
// implementations are not promised to be concurrency-safe.
func (e *Estimator) EstimateJoinBatch(items []engine.JoinBatchItem, parallelism int) []float64 {
	out := make([]float64, len(items))
	if len(items) > 0 {
		e.view(nil).joinBatch(obs.OpJoinBatch, items, parallelism, out)
	}
	return out
}

// joinBatch is the one join-size path. Traced views record one OpJoin span
// per item (plus a fallback span where the traditional estimator
// answered), and batches add an OpJoinBatch summary; op labels the
// residual spans.
func (e *Estimator) joinBatch(op string, items []engine.JoinBatchItem, parallelism int, out []float64) {
	start := time.Now()
	e.Metrics.Calls.Add(int64(len(items)))
	traced := e.trace != nil
	var sources []string
	if traced && op == obs.OpJoinBatch {
		sources = make([]string, len(items))
	}
	hits, answered := 0, int64(0)
	// modelAnswered settles item k once out[k] holds its sanitized model
	// estimate (computed or memoized): span, then residual correction.
	modelAnswered := func(k int, outcome string, hit bool, dur time.Duration) {
		answered++
		if traced {
			e.trace.Add(obs.Span{
				Op: obs.OpJoin, Tables: e.traceBindings(items[k].Tables), Key: "factorjoin", Source: "factorjoin",
				Outcome: outcome, CacheHit: hit, Value: out[k], Duration: dur,
			})
			if sources != nil {
				sources[k] = "factorjoin"
			}
		}
		if e.Residual != nil {
			out[k] = e.correctFinal(op, items[k].Tables, items[k].Conds, out[k], 1, cartesianUpper(items[k].Tables)).Float()
		}
	}
	// fellBack answers item k from the traditional estimator.
	fellBack := func(k int, cause error) {
		out[k] = e.Fallback.EstimateJoin(items[k].Tables, items[k].Conds)
		e.fallbackSpan(obs.OpJoin, e.traceBindings(items[k].Tables), cause, out[k], start)
		if sources != nil {
			sources[k] = e.Fallback.Name()
		}
	}
	summary := func(outcome, errMsg string) {
		if answered > 0 {
			e.Metrics.Sources.Add("factorjoin", answered)
		}
		if sources == nil {
			return
		}
		e.trace.Add(obs.Span{
			Op: obs.OpJoinBatch, Key: "factorjoin", Source: "factorjoin", Outcome: outcome,
			CacheHit: hits == len(items), Workers: parallelism, Sources: sources,
			Value: float64(len(items)), Err: errMsg, Duration: time.Since(start),
		})
	}
	fallbackAll := func(cause *ModelError) {
		e.Metrics.Fallbacks.Add(int64(len(items)))
		for k := range items {
			if cause.Outcome != obs.OutcomeMissing {
				e.modelSpan(obs.OpJoin, e.traceBindings(items[k].Tables), "factorjoin", cause.Outcome, 0, cause, time.Since(start))
			}
			fellBack(k, cause)
		}
		summary(cause.Outcome, cause.Msg)
	}
	fj := e.models.FactorJoin()
	if fj == nil {
		fallbackAll(&ModelError{Key: "factorjoin", Outcome: obs.OutcomeMissing, Msg: "core: no FactorJoin model loaded"})
		return
	}
	if err := e.Infer.admit(e.models, "factorjoin"); err != nil {
		e.Metrics.ModelCalls.Add(int64(len(items)))
		e.Metrics.ModelFailures.Add(int64(len(items)))
		fallbackAll(err)
		return
	}
	// Place every item in a universe and resolve it from the subset memo:
	// the cached value is the sanitized estimate a fresh model call would
	// return (determinism makes the replay byte-identical), so hits skip
	// the guard and the model entirely. The memo holds uncorrected
	// estimates, so hits and computed items apply the same residual
	// correction.
	reqs := make([]joinRequest, len(items))
	placeAll(items, reqs)
	need := make([]int, 0, len(items))
	for k := range reqs {
		r := &reqs[k]
		if r.u == nil {
			need = append(need, k)
			continue
		}
		r.key = r.u.key(e.models.generation, r.tables, r.conds)
		if v, ok := e.vec.Get(r.key); ok {
			out[k] = v
			hits++
			modelAnswered(k, obs.OutcomeOK, true, 0)
			continue
		}
		need = append(need, k)
	}
	if len(need) == 0 {
		summary(obs.OutcomeOK, "")
		return
	}
	e.Metrics.ModelCalls.Add(int64(len(need)))
	modelStart := time.Now()
	for _, k := range need {
		r := &reqs[k]
		if r.u == nil {
			continue
		}
		if r.u.graph == nil && r.u.err == nil {
			r.u.compile(fj, e.keySource(r.u), e.JoinMode)
		}
		r.err = r.u.err
	}
	par.Do(len(need), e.fanOutWorkers(len(need), parallelism), func(i int) {
		k := need[i]
		r := &reqs[k]
		if r.err != nil {
			return
		}
		var began time.Time
		if traced {
			began = time.Now()
		}
		raw, err := e.Guard.Do("factorjoin", func() (float64, error) { return r.u.graph.Estimate(r.tables, r.conds) })
		if err == nil {
			var v estimate.Value
			if v, err = e.Guard.Sanitize("factorjoin", raw, 1, cartesianUpper(items[k].Tables)); err == nil {
				out[k], r.clamped = v.Float(), v.Float() != raw
			}
		}
		r.err = err
		if traced {
			r.dur = time.Since(began)
		}
	})
	// Serial epilogue: breaker accounting, per-item fallbacks, metrics,
	// and subset-memo publication for the successes.
	outcome := obs.OutcomeOK
	var failures int64
	var errMsg string
	for _, k := range need {
		r := &reqs[k]
		if r.err != nil {
			e.Infer.RecordFailure("factorjoin")
			if failures++; errMsg == "" {
				errMsg = r.err.Error()
			}
			e.modelSpan(obs.OpJoin, e.traceBindings(items[k].Tables), "factorjoin", OutcomeOf(r.err), 0, r.err, r.dur)
			fellBack(k, r.err)
			continue
		}
		e.Infer.RecordSuccess("factorjoin")
		itemOutcome := obs.OutcomeOK
		if r.clamped {
			itemOutcome, outcome = obs.OutcomeClamped, obs.OutcomeClamped
		}
		e.vec.put(r.key, out[k], e.vecEpoch)
		modelAnswered(k, itemOutcome, false, r.dur)
	}
	e.Metrics.ModelFailures.Add(failures)
	e.Metrics.Fallbacks.Add(failures)
	// Per model call, which is what fanOutWorkers multiplies back up.
	e.Metrics.ModelLatency.Observe(float64(time.Since(modelStart).Nanoseconds()) / float64(len(need)))
	summary(outcome, errMsg)
}
