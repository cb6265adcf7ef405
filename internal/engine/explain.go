package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bytecard/internal/expr"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
)

// Viewer is satisfied by estimators that derive the view the planner asks
// for every estimate of one query: ByteCard's reads one model generation
// however many loads land meanwhile, and records model keys, guard
// outcomes and cache hits into tr when it is non-nil.
type Viewer interface {
	CardEstimator
	View(tr *obs.Trace) CardEstimator
}

// viewOf returns the estimator one query plans with: est's own view for a
// Viewer, else est itself, wrapped with generic span recording (operation,
// tables, value, timing) when tr is non-nil.
func viewOf(est CardEstimator, tr *obs.Trace) CardEstimator {
	if v, ok := est.(Viewer); ok {
		return v.View(tr)
	}
	if tr == nil {
		return est
	}
	return &spanningEstimator{inner: est, tr: tr}
}

// spanningEstimator wraps any CardEstimator with generic span recording.
type spanningEstimator struct {
	inner CardEstimator
	tr    *obs.Trace
}

func (s *spanningEstimator) Name() string { return s.inner.Name() }

func (s *spanningEstimator) record(op string, tables []string, start time.Time, v float64) float64 {
	s.tr.Add(obs.Span{
		Op: op, Tables: tables, Source: s.inner.Name(),
		Outcome: obs.OutcomeOK, Value: v, Duration: time.Since(start),
	})
	return v
}

func (s *spanningEstimator) EstimateFilter(t *QueryTable) float64 {
	start := time.Now()
	return s.record(obs.OpFilter, []string{t.Binding}, start, s.inner.EstimateFilter(t))
}

func (s *spanningEstimator) EstimateConj(t *QueryTable, preds []expr.Pred) float64 {
	start := time.Now()
	return s.record(obs.OpConj, []string{t.Binding}, start, s.inner.EstimateConj(t, preds))
}

func (s *spanningEstimator) EstimateJoin(tables []*QueryTable, joins []JoinCond) float64 {
	start := time.Now()
	return s.record(obs.OpJoin, Bindings(tables), start, s.inner.EstimateJoin(tables, joins))
}

func (s *spanningEstimator) EstimateGroupNDV(q *Query) float64 {
	start := time.Now()
	return s.record(obs.OpGroupNDV, q.GroupedBindings(), start, s.inner.EstimateGroupNDV(q))
}

// ExplainNode is one annotated node of an explained plan.
type ExplainNode struct {
	// Kind is "scan", "join", or "aggregate".
	Kind string `json:"kind"`
	// Tables lists the bindings the node covers: one for scans, the
	// left-deep prefix for joins, the grouped bindings for aggregates.
	Tables []string `json:"tables"`
	// Strategy is the scan materialization strategy ("single-stage" or
	// "multi-stage"); empty for non-scan nodes.
	Strategy string `json:"strategy,omitempty"`
	// ColOrder is the multi-stage reader's predicate column order.
	ColOrder []string `json:"col_order,omitempty"`
	// EstRows is the node's estimated cardinality (estimated group count
	// for aggregate nodes).
	EstRows float64 `json:"est_rows"`
	// Source names the estimator that produced EstRows ("bn",
	// "factorjoin", "rbx", "sketch", "heuristic", ...); empty when no
	// estimate was requested for the node.
	Source string `json:"source,omitempty"`
	// Fallback marks nodes whose estimate came from the traditional
	// estimator after a model failure.
	Fallback bool `json:"fallback,omitempty"`
	// Pushdown marks scan nodes routed through the storage BlockScan
	// contract (zone-map skipping, vectorized filtering).
	Pushdown bool `json:"pushdown,omitempty"`
	// PredictedBlocks is the zone-map prediction of per-column blocks a
	// pushed-down scan will charge: blocks whose zone ranges survive every
	// constraint, times the constrained-column count (an upper bound —
	// staged filtering reads later columns only where survivors remain).
	// Zero for non-pushdown scans and unconstrained filters.
	PredictedBlocks int `json:"predicted_blocks,omitempty"`
	// ActualBlocks is the executed block-read count for the node's
	// binding, filled by AnnotateExecution from a run's Metrics.
	ActualBlocks int `json:"actual_blocks,omitempty"`
}

// ExplainResult is the product of Engine.Explain: the chosen plan with
// per-node estimates, estimator sources, and the full estimation trace.
type ExplainResult struct {
	// SQL is the explained statement.
	SQL string `json:"sql"`
	// Estimator is the engine's configured estimator name.
	Estimator string `json:"estimator"`
	// Generation is the model generation the planning view read, for
	// estimators whose views pin one (zero otherwise).
	Generation uint64 `json:"generation,omitempty"`
	// Nodes lists plan nodes bottom-up: scans in join order, then join
	// steps, then the aggregate (if any).
	Nodes []ExplainNode `json:"nodes"`
	// EstFinalRows is the estimated cardinality of the full filtered join.
	EstFinalRows float64 `json:"est_final_rows"`
	// AggCapacity is the presized aggregation hash-table capacity (0
	// without grouping).
	AggCapacity int `json:"agg_capacity"`
	// PlanDuration is the optimization wall time, estimator calls
	// included.
	PlanDuration time.Duration `json:"plan_duration_ns"`
	// Trace is every estimation step planning took, in order.
	Trace []obs.Span `json:"trace"`
}

// spanKey canonicalizes (op, tables) for node→span attribution.
func spanKey(op string, tables []string) string {
	s := append([]string(nil), tables...)
	sort.Strings(s)
	return op + "|" + strings.Join(s, ",")
}

// Explain parses and plans sql without executing it, returning the chosen
// plan annotated with each node's estimate, the estimator source that
// produced it, and the full per-call trace. Planning runs under a tracing
// view of the engine's estimator; the engine itself is not perturbed.
func (e *Engine) Explain(sql string) (*ExplainResult, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExplainStmt(sql, stmt)
}

// ExplainStmt explains an already-parsed statement.
func (e *Engine) ExplainStmt(sql string, stmt *sqlparse.SelectStmt) (*ExplainResult, error) {
	q, err := e.Analyze(stmt)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTrace()
	start := time.Now()
	est := viewOf(e.Est, tr)
	p, err := e.optimize(q, est)
	if err != nil {
		return nil, err
	}
	res := &ExplainResult{
		SQL:          sql,
		Estimator:    e.Est.Name(),
		EstFinalRows: p.EstFinalRows,
		AggCapacity:  p.AggCapacity,
		PlanDuration: time.Since(start),
		Trace:        tr.Spans(),
	}
	if g, ok := est.(interface{ Generation() uint64 }); ok {
		res.Generation = g.Generation()
	}

	// Attribute each node to the span that produced its estimate: the last
	// value-producing span for the node's (op, tables). Failed model spans
	// for the same key precede their fallback span, so "last wins" lands
	// on whatever actually answered.
	type attribution struct {
		source   string
		fallback bool
	}
	attr := map[string]attribution{}
	for _, s := range res.Trace {
		if s.Outcome != obs.OutcomeOK && s.Outcome != obs.OutcomeClamped {
			continue
		}
		if s.Op == obs.OpVector || s.Op == obs.OpConj {
			continue
		}
		attr[spanKey(s.Op, s.Tables)] = attribution{source: s.Source, fallback: s.Fallback}
	}

	for _, idx := range p.JoinOrder {
		sp := p.Scans[idx]
		t := q.Tables[sp.TableIdx]
		node := ExplainNode{
			Kind:            "scan",
			Tables:          []string{t.Binding},
			Strategy:        sp.Strategy,
			ColOrder:        sp.ColOrder,
			EstRows:         sp.EstRows,
			Pushdown:        e.pushdown(),
			PredictedBlocks: e.predictedScanBlocks(t),
		}
		if a, ok := attr[spanKey(obs.OpFilter, node.Tables)]; ok {
			node.Source, node.Fallback = a.source, a.fallback
		}
		res.Nodes = append(res.Nodes, node)
	}
	prefix := []string{q.Tables[p.JoinOrder[0]].Binding}
	for step, idx := range p.JoinOrder[1:] {
		prefix = append(prefix, q.Tables[idx].Binding)
		node := ExplainNode{
			Kind:   "join",
			Tables: append([]string(nil), prefix...),
		}
		if step < len(p.JoinEstRows) {
			node.EstRows = p.JoinEstRows[step]
		}
		if a, ok := attr[spanKey(obs.OpJoin, node.Tables)]; ok {
			node.Source, node.Fallback = a.source, a.fallback
		}
		res.Nodes = append(res.Nodes, node)
	}
	if len(q.GroupBy) > 0 {
		grouped := q.GroupedBindings()
		node := ExplainNode{
			Kind:    "aggregate",
			Tables:  grouped,
			EstRows: float64(p.AggCapacity),
		}
		// The per-table RBX spans share the aggregate's op; any grouped
		// binding attributes the node (they all answer from one source or
		// the whole estimate fell back as one).
		for _, b := range grouped {
			if a, ok := attr[spanKey(obs.OpGroupNDV, []string{b})]; ok {
				node.Source, node.Fallback = a.source, a.fallback
				break
			}
		}
		if node.Source == "" {
			if a, ok := attr[spanKey(obs.OpGroupNDV, grouped)]; ok {
				node.Source, node.Fallback = a.source, a.fallback
			}
		}
		res.Nodes = append(res.Nodes, node)
	}
	return res, nil
}

// predictedScanBlocks runs the compiled filter's zone test at plan time:
// the number of blocks the filter's zone maps do not rule out, times the
// constrained-column count — the blocks a pushed-down scan will charge at
// most (exactly, for one constrained column and no LIMIT). Metadata only;
// nothing is read.
func (e *Engine) predictedScanBlocks(t *QueryTable) int {
	if !e.pushdown() || t.Filter == nil {
		return 0
	}
	f := storage.Compile(t.Table, t.Filter, nil)
	return len(storage.Survivors(f, nil)) * len(f.Columns())
}

// AnnotateExecution fills each scan node's ActualBlocks from an executed
// run's metrics (Metrics.ScanBlocks, keyed by binding) — the predicted-
// versus-actual pair the CLI prints after running an explained query.
func (r *ExplainResult) AnnotateExecution(m *Metrics) {
	if m == nil || m.ScanBlocks == nil {
		return
	}
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.Kind != "scan" || len(n.Tables) != 1 {
			continue
		}
		if sb, ok := m.ScanBlocks[n.Tables[0]]; ok {
			n.ActualBlocks = sb.Read
		}
	}
}

// String renders the explained plan as an indented tree for CLI output.
func (r *ExplainResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan estimator=%s", r.Estimator)
	if r.Generation > 0 {
		fmt.Fprintf(&b, " generation=%d", r.Generation)
	}
	fmt.Fprintf(&b, " est_final_rows=%.1f plan_time=%s\n", r.EstFinalRows, r.PlanDuration)
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "  %-9s [%s]", n.Kind, strings.Join(n.Tables, " ⋈ "))
		if n.Strategy != "" {
			fmt.Fprintf(&b, " strategy=%s", n.Strategy)
		}
		if len(n.ColOrder) > 0 {
			fmt.Fprintf(&b, " col_order=%s", strings.Join(n.ColOrder, ","))
		}
		fmt.Fprintf(&b, " est_rows=%.1f", n.EstRows)
		if n.Pushdown {
			b.WriteString(" pushdown")
		}
		if n.PredictedBlocks > 0 {
			fmt.Fprintf(&b, " pred_blocks=%d", n.PredictedBlocks)
		}
		if n.ActualBlocks > 0 {
			fmt.Fprintf(&b, " actual_blocks=%d", n.ActualBlocks)
		}
		if n.Source != "" {
			fmt.Fprintf(&b, " source=%s", n.Source)
		}
		if n.Fallback {
			b.WriteString(" (fallback)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
