package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Estimator operations a Span can describe.
const (
	OpFilter    = "filter"     // single-table filtered cardinality
	OpConj      = "conj"       // conjunction selectivity (column ordering)
	OpJoin      = "join"       // join-size estimation over a table subset
	OpJoinBatch = "join_batch" // one DP rank of join subsets in a batch
	OpGroupNDV  = "groupndv"   // group-key NDV estimation
	OpVector    = "vec"        // FactorJoin bucket-vector fetch (BN joint)
	OpResidual  = "residual"   // residual correction applied to an estimate
)

// Planning-phase operations a Span can describe (recorded by the query
// engine's planner rather than an estimator).
const (
	OpPlanCache = "plan_cache" // template plan-cache hit replayed cached decisions
)

// Execution-phase operations a Span can describe (recorded by the query
// engine's executor rather than an estimator; Workers carries the
// morsel-driven parallelism the phase ran with).
const (
	OpExecScan     = "exec_scan"     // base-table scan (filter + materialization)
	OpExecJoin     = "exec_join"     // one hash-join step (build + probe)
	OpExecAgg      = "exec_agg"      // final aggregation (accumulate + merge)
	OpScanPushdown = "scan_pushdown" // pushed-down scan detail (Value = blocks zone-map skipped)
)

// Span outcomes. OutcomeOK and OutcomeClamped are successes; everything
// else names the guard or breaker verdict that forced the failure.
const (
	OutcomeOK          = "ok"
	OutcomeClamped     = "clamped"      // finite estimate pulled into bounds
	OutcomePanic       = "panic"        // model panicked, recovered by guard
	OutcomeTimeout     = "timeout"      // exceeded the guard latency budget
	OutcomeInvalid     = "invalid"      // NaN/Inf/negative estimate rejected
	OutcomeBreakerOpen = "breaker_open" // circuit breaker refused admission
	OutcomeDisabled    = "disabled"     // Model Monitor disabled the key
	OutcomeMissing     = "missing"      // no model loaded for the key
	OutcomeError       = "error"        // any other model failure
)

// Span is one step of an estimation trace: a guarded model call, a cache
// hit, or a fallback to the traditional estimator.
type Span struct {
	// Op is the estimator operation (Op* constants).
	Op string `json:"op"`
	// Tables lists the table bindings the operation covers.
	Tables []string `json:"tables,omitempty"`
	// Key is the model key consulted ("bn:<table>", "factorjoin", "rbx");
	// empty for fallback spans.
	Key string `json:"key,omitempty"`
	// Source names what produced the value: "bn", "factorjoin", "rbx", or
	// the fallback estimator's name ("sketch", ...).
	Source string `json:"source"`
	// Outcome classifies the call (Outcome* constants).
	Outcome string `json:"outcome"`
	// Fallback marks spans served by the traditional estimator after a
	// model failure.
	Fallback bool `json:"fallback,omitempty"`
	// CacheHit marks join-vector cache hits.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Workers is the parallelism an execution-phase or batch span ran with
	// (0 for single-call estimator spans).
	Workers int `json:"workers,omitempty"`
	// Sources lists the per-item answer source of a batch span (aligned
	// with the batch's items), replacing the per-call Source attribution a
	// sequential span would carry.
	Sources []string `json:"sources,omitempty"`
	// Value is the produced estimate (selectivity, rows, or NDV depending
	// on Op); zero for failed spans.
	Value float64 `json:"value"`
	// Err is the failure message for non-ok outcomes.
	Err string `json:"err,omitempty"`
	// Duration is the wall time of this step.
	Duration time.Duration `json:"duration_ns"`
}

// String renders one span compactly for logs and EXPLAIN output.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", s.Op, strings.Join(s.Tables, ","))
	fmt.Fprintf(&b, " source=%s outcome=%s", s.Source, s.Outcome)
	if s.Fallback {
		b.WriteString(" fallback")
	}
	if s.CacheHit {
		b.WriteString(" cache-hit")
	}
	if s.Workers > 0 {
		fmt.Fprintf(&b, " workers=%d", s.Workers)
	}
	if len(s.Sources) > 0 {
		fmt.Fprintf(&b, " sources=[%s]", strings.Join(s.Sources, ","))
	}
	fmt.Fprintf(&b, " value=%g dur=%s", s.Value, s.Duration)
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%q", s.Err)
	}
	return b.String()
}

// Trace collects the spans of one estimation request or one planning pass.
// All methods are safe on a nil receiver — a nil *Trace is the disabled
// collector, so estimator code records unconditionally and production
// paths that never asked for a trace pay only a nil check.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// NewTrace returns an empty, active trace.
func NewTrace() *Trace { return &Trace{} }

// Active reports whether spans are being collected (false on nil).
func (t *Trace) Active() bool { return t != nil }

// Add appends one span; no-op on a nil trace.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the collected spans in record order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len returns the span count.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Fallback reports whether any span was served by the traditional
// estimator.
func (t *Trace) Fallback() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Fallback {
			return true
		}
	}
	return false
}

// Source returns the source of the last value-producing span, skipping
// interior helper spans (bucket-vector fetches and failed attempts). Empty
// when nothing succeeded.
func (t *Trace) Source() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		if s.Op == OpVector {
			continue
		}
		if s.Outcome == OutcomeOK || s.Outcome == OutcomeClamped {
			return s.Source
		}
	}
	return ""
}

// Outcomes returns the set of non-ok outcomes observed (sorted, deduped) —
// the guard verdicts behind any fallback.
func (t *Trace) Outcomes() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, s := range t.spans {
		if s.Outcome == OutcomeOK || seen[s.Outcome] {
			continue
		}
		seen[s.Outcome] = true
		out = append(out, s.Outcome)
	}
	sort.Strings(out)
	return out
}
