// Package engine implements the analytical query engine ByteCard plugs
// into: semantic analysis, a cost-based optimizer whose decisions —
// materialization strategy, predicate column order, join order, and
// aggregation hash-table sizing — are all driven by a pluggable cardinality
// estimator, and columnar executors with block-level I/O accounting and
// hash-table resize counting. It is the reproduction substrate for the
// paper's end-to-end experiments.
package engine

import (
	"fmt"
	"slices"
	"time"

	"bytecard/internal/expr"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// QueryTable is one resolved FROM entry.
type QueryTable struct {
	// Binding is the name the query uses (alias or table name).
	Binding string
	// Name is the physical table name.
	Name string
	// Table is the storage handle.
	Table *storage.Table
	// Filter is the table-local filter tree (leaf Table fields hold the
	// binding), or nil.
	Filter *expr.Node
}

// JoinCond is one equi-join condition between two resolved tables,
// referencing bindings.
type JoinCond struct {
	LeftTab, LeftCol   string
	RightTab, RightCol string
}

// String renders the condition.
func (j JoinCond) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTab, j.LeftCol, j.RightTab, j.RightCol)
}

// ColRef references a column of a bound table.
type ColRef struct {
	Tab string // binding
	Col string
}

// String renders the reference.
func (c ColRef) String() string { return c.Tab + "." + c.Col }

// AggKind identifies an aggregate function.
type AggKind int

// Aggregate kinds.
const (
	AggCountStar AggKind = iota
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate of the select list.
type AggSpec struct {
	Kind AggKind
	// Cols holds the aggregated columns (several for COUNT DISTINCT).
	Cols []ColRef
}

// Query is the analyzed form of a select statement.
type Query struct {
	Stmt    *sqlparse.SelectStmt
	Tables  []*QueryTable
	Joins   []JoinCond
	GroupBy []ColRef
	Aggs    []AggSpec
	// Select lists the projected columns of a projection (non-aggregate)
	// query, in select-list order; empty for aggregate queries. Projection
	// queries preserve scan/join row order and skip intermediate
	// compression (which reorders tuples).
	Select []ColRef
	// Limit caps the result row count (0 = unlimited). For single-table
	// projection queries it is pushed into the scan so reading stops at
	// the Limit-th match.
	Limit int
	// OutCols mirrors the select list: group columns and aggregates in
	// select-list order; -1 entries index Aggs, >=0 entries index GroupBy.
	outPlan []outputItem
}

type outputItem struct {
	// isAgg selects between aggIdx and groupIdx.
	isAgg    bool
	aggIdx   int
	groupIdx int
}

// TableByBinding returns the table bound to name, or nil.
func (q *Query) TableByBinding(name string) *QueryTable {
	for _, t := range q.Tables {
		if t.Binding == name {
			return t
		}
	}
	return nil
}

// Bindings lists tables' bindings in order.
func Bindings(tables []*QueryTable) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		out[i] = t.Binding
	}
	return out
}

// GroupedBindings lists the bindings q groups by, each once, in GROUP BY
// order.
func (q *Query) GroupedBindings() []string {
	var out []string
	for _, g := range q.GroupBy {
		if !slices.Contains(out, g.Tab) {
			out = append(out, g.Tab)
		}
	}
	return out
}

// ScanBlockStats is one scanned binding's block accounting: blocks charged
// to IOStats versus blocks zone-map pruning skipped without reading,
// summed over the binding's columns.
type ScanBlockStats struct {
	Read    int
	Skipped int
}

// Metrics records the observable cost of one query execution — the
// quantities the paper's Figure 6 experiments chart.
type Metrics struct {
	// IO accumulates block reads across all scans of the query.
	IO *storage.IOStats
	// HashResizes counts the doublings of the GROUP BY table that ends up
	// holding every group (worker 0's, after the other workers' tables are
	// absorbed into it), from its presized capacity: Figure 6b's resize
	// count. It is the number of load limits (0.7 of each capacity) the
	// group count passes, plus one when it lands exactly on a limit and
	// another insert follows; 0 without GROUP BY. Other workers' tables are
	// not counted, so splitting the input does not add doublings.
	HashResizes int64
	// TableDoublings counts the doublings of every hash table the query
	// built: join key tables, compress and per-chunk merge tables, COUNT
	// DISTINCT sets and every worker's group table. Per-chunk tables make
	// it depend on the worker count.
	TableDoublings int64
	// RowsMaterialized counts the rows operators produce: every scan's
	// surviving rows plus every join step's matches (left tuple, right
	// row pairs — the number the MaxIntermediateRows guard bounds). A join
	// step whose probe is fused with compression never builds that
	// exploded relation, but its matches are counted all the same, so the
	// figure stays a measure of join-order quality, not of memory used.
	RowsMaterialized int64
	// SIPPruned counts rows dropped by sideways information passing
	// before their predicate columns were read.
	SIPPruned int64
	// InitialAggCapacity is the presized aggregation capacity (0 when the
	// query has no aggregation).
	InitialAggCapacity int
	// ReaderStrategy maps each scanned binding to "single-stage" or
	// "multi-stage".
	ReaderStrategy map[string]string
	// ScanBlocks maps each scanned binding to its block read/skip counts
	// (the per-scan-node actuals EXPLAIN annotation compares against the
	// zone-map prediction).
	ScanBlocks map[string]ScanBlockStats
	// EstFinalRows is the optimizer's cardinality estimate for the
	// filtered join, copied from the plan so estimate and truth travel
	// together.
	EstFinalRows float64
	// ActualFinalRows is the exact logical cardinality of the filtered
	// join the executor observed (multiplicity-aware, unaffected by
	// intermediate compression) — the per-plan ground truth q-error
	// monitoring compares EstFinalRows against.
	ActualFinalRows int64
	// ParallelWorkers is the morsel-driven worker count the executor ran
	// with (1 runs every phase once over its whole input).
	ParallelWorkers int
	// PlanCacheHit marks runs whose plan was rebuilt from the template
	// plan cache rather than planned fresh.
	PlanCacheHit bool
	// PlanDuration includes all estimator calls made during optimization.
	PlanDuration time.Duration
	// ExecDuration is pure execution time.
	ExecDuration time.Duration
}

// Result is a query result: column labels and materialized rows.
type Result struct {
	Columns []string
	Rows    [][]types.Datum
	Metrics Metrics
}

// ScalarInt returns the single int64 cell of a one-row one-column result
// (the shape of COUNT(*) queries).
func (r *Result) ScalarInt() (int64, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return 0, fmt.Errorf("engine: result is %dx%d, not scalar", len(r.Rows), len(r.Columns))
	}
	d := r.Rows[0][0]
	if d.K != types.KindInt64 {
		return 0, fmt.Errorf("engine: scalar result is %s, not INT64", d.K)
	}
	return d.I, nil
}

// CardEstimator is the estimation interface the optimizer consumes. The
// three implementations compared in the paper — sketch-based, sample-based,
// and ByteCard — all satisfy it.
type CardEstimator interface {
	// Name identifies the estimator in reports.
	Name() string
	// EstimateFilter returns the estimated number of rows of t surviving
	// its filter (t.Filter may be nil).
	EstimateFilter(t *QueryTable) float64
	// EstimateConj returns the estimated selectivity fraction of a
	// conjunction of predicates over t, used for predicate column
	// ordering in the multi-stage reader.
	EstimateConj(t *QueryTable, preds []expr.Pred) float64
	// EstimateJoin returns the estimated row count of joining the given
	// tables (with their filters) under the given conditions. tables has
	// at least two entries and the conditions connect them.
	// Implementations must not retain the tables/joins slices past the
	// call — the planner reuses the backing arrays between requests.
	EstimateJoin(tables []*QueryTable, joins []JoinCond) float64
	// EstimateGroupNDV returns the estimated number of distinct group
	// keys of the query (the aggregation hash-table sizing input).
	EstimateGroupNDV(q *Query) float64
}

// JoinBatchItem is one join-size request within a batch: a connected table
// subset with the join conditions internal to it (the same arguments one
// EstimateJoin call would receive). Items of one batch that share a table
// share the *QueryTable, which is how an estimator recognizes the instance;
// an estimator that memoizes across batches derives the subset's identity
// itself (tables, filters with their constants, and conditions) — a
// deterministic estimator returns the identical value either way, so
// memoization preserves the byte-identity contract below.
type JoinBatchItem struct {
	Tables []*QueryTable
	Conds  []JoinCond
}

// BatchCardEstimator is optionally implemented by estimators that can
// answer many join-size requests in one call. The planner's join-order DP
// hands over every connected subset it will cost at once — one batch per
// Plan — letting the estimator share per-table and per-subtree work across
// the whole DP, amortize guard/trace overhead, and fan the independent
// items across workers. Results align with items and every entry must be
// filled — per-item failures take the same fallback value EstimateJoin
// would return. Item results must not depend on batch composition or
// worker count: the planner requires batched planning to be byte-identical
// to the sequential path. The planner itself calls EstimateJoinBatch
// serially; whatever concurrency the implementation uses internally is its
// own to make safe.
type BatchCardEstimator interface {
	CardEstimator
	// EstimateJoinBatch estimates every item, using at most parallelism
	// concurrent workers, and returns one estimate per item.
	EstimateJoinBatch(items []JoinBatchItem, parallelism int) []float64
}
