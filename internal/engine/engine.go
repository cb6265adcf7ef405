package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"bytecard/internal/catalog"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
)

// Default tuning knobs.
const (
	// DefaultReaderThreshold is the overall-selectivity fraction below
	// which the optimizer picks the multi-stage reader (selective
	// predicates benefit from staged, late materialization; non-selective
	// ones would re-read most blocks per stage).
	DefaultReaderThreshold = 0.15
	// DefaultAggCapacity is the cold-start aggregation hash-table
	// capacity used when NDV presizing is disabled.
	DefaultAggCapacity = 16
	// DefaultColOrderEarlyStop stops predicate-order enumeration once the
	// running conjunction selectivity exceeds this fraction (the paper's
	// constraint easing the enumeration overhead).
	DefaultColOrderEarlyStop = 0.5
	// MaxIntermediateRows aborts runaway joins.
	MaxIntermediateRows = 50_000_000
)

// Engine executes SQL over a storage database, taking every
// cardinality-driven optimization decision from its CardEstimator.
type Engine struct {
	DB     *storage.Database
	Schema *catalog.Schema
	Est    CardEstimator

	// AggCapacity overrides DefaultAggCapacity when positive.
	AggCapacity int
	// DisableNDVPresize forces cold-start aggregation tables (the
	// "without ByteCard" configuration of Figure 6b).
	DisableNDVPresize bool
	// ForceReader pins the materialization strategy for every scan:
	// "single-stage" or "multi-stage" (ablation hook); empty selects
	// dynamically.
	ForceReader string
	// DisableSIP turns off sideways information passing (ablation hook).
	DisableSIP bool
	// Parallelism is the executor's worker count for morsel-driven scans,
	// hash-join probes, and aggregation; zero takes runtime.GOMAXPROCS(0).
	// One worker runs every phase once over all of its input, on the
	// calling goroutine.
	Parallelism int
	// Pushdown selects the pushed-down scan path (zone-map block skipping,
	// vectorized evaluation of any AND / OR filter, projection/limit
	// pushdown). Zero or positive is on; negative forces off (the legacy
	// readers, byte-identical to pre-pushdown behavior). ForceReader pins
	// the legacy readers regardless, so strategy-ablation comparisons stay
	// meaningful. Both are read when a plan executes, so a cached plan
	// takes the route the knobs name at that moment.
	Pushdown int
	// Obs, when set, accumulates query volume, planning/execution latency,
	// and the q-error of each plan's final cardinality estimate against
	// the executed truth.
	Obs *obs.EngineMetrics
	// PlanCache, when set, memoizes optimizer decisions by normalized
	// query template (see PlanCache). Nil disables template caching; the
	// owner is responsible for registering the cache with the inference
	// registry so model churn invalidates it.
	PlanCache *PlanCache
	// OnTruth, when set, receives each executed statement's template
	// identity (TemplateKey), deduped sorted physical-table list,
	// final-plan cardinality estimate, and exact executed cardinality —
	// the executed-truth feedback hook the residual corrector learns
	// from. Called synchronously after execution, on cache-hit and
	// cache-miss plans alike.
	OnTruth func(templateKey string, tables []string, est float64, actual int64)
}

// New creates an engine. Schema may be nil (join-pattern collection is then
// skipped).
func New(db *storage.Database, schema *catalog.Schema, est CardEstimator) *Engine {
	return &Engine{DB: db, Schema: schema, Est: est}
}

// pushdown reports whether scans take the pushed-down path.
func (e *Engine) pushdown() bool { return e.ForceReader == "" && e.Pushdown >= 0 }

func (e *Engine) defaultAggCapacity() int {
	if e.AggCapacity > 0 {
		return e.AggCapacity
	}
	return DefaultAggCapacity
}

// workers resolves the executor worker count for one query.
func (e *Engine) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Run parses, analyzes, optimizes, and executes sql.
func (e *Engine) Run(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.RunStmt(stmt)
}

// RunStmt analyzes, optimizes, and executes a parsed statement.
func (e *Engine) RunStmt(stmt *sqlparse.SelectStmt) (*Result, error) {
	return e.RunStmtTraced(stmt, nil)
}

// RunTraced runs sql recording every estimation step of planning and every
// execution phase (scan, join, aggregate — with worker counts) into tr. A
// nil tr disables recording.
func (e *Engine) RunTraced(sql string, tr *obs.Trace) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.RunStmtTraced(stmt, tr)
}

// RunStmtTraced analyzes, optimizes, and executes a parsed statement,
// recording planning estimates and execution-phase spans into tr (nil
// disables recording).
func (e *Engine) RunStmtTraced(stmt *sqlparse.SelectStmt, tr *obs.Trace) (*Result, error) {
	q, err := e.Analyze(stmt)
	if err != nil {
		return nil, err
	}
	planStart := time.Now()
	p, err := e.plan(q, tr)
	if err != nil {
		return nil, err
	}
	planDur := time.Since(planStart)
	res, err := e.ExecuteTraced(p, tr)
	if err != nil {
		return nil, err
	}
	res.Metrics.PlanDuration = planDur
	res.Metrics.PlanCacheHit = p.CacheHit
	if e.Obs != nil {
		e.Obs.Queries.Add(1)
		e.Obs.PlanLatency.Observe(float64(planDur.Nanoseconds()))
		e.Obs.ExecLatency.Observe(float64(res.Metrics.ExecDuration.Nanoseconds()))
		e.Obs.PlanQError.Observe(obs.QError(res.Metrics.EstFinalRows, float64(res.Metrics.ActualFinalRows)))
		e.Obs.BlocksRead.Add(res.Metrics.IO.BlocksRead())
		e.Obs.BlocksSkipped.Add(res.Metrics.IO.BlocksSkipped())
	}
	if e.OnTruth != nil {
		e.OnTruth(TemplateKey(q.Tables, q.Joins), physicalTables(q), res.Metrics.EstFinalRows, res.Metrics.ActualFinalRows)
	}
	return res, nil
}

// physicalTables lists the query's deduped physical table names, sorted.
func physicalTables(q *Query) []string {
	var out []string
	for _, t := range q.Tables {
		if !slices.Contains(out, t.Name) {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

func joinPattern(lt, lc, rt, rc string) catalog.JoinPattern {
	return catalog.JoinPattern{
		Left:  catalog.ColumnRef{Table: lt, Column: lc},
		Right: catalog.ColumnRef{Table: rt, Column: rc},
	}
}

// TrueCardinality executes SELECT COUNT(*) semantics for the query and
// returns the exact row count of the filtered join — the ground truth used
// by Q-error experiments and by the Model Monitor's probe evaluation.
func (e *Engine) TrueCardinality(sql string) (float64, error) {
	res, err := e.Run(sql)
	if err != nil {
		return 0, err
	}
	n, err := res.ScalarInt()
	if err != nil {
		return 0, fmt.Errorf("engine: true-cardinality query must be a bare COUNT(*): %w", err)
	}
	return float64(n), nil
}
