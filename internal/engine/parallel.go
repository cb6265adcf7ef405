// Morsel-driven parallel execution: each scan's row space is split into
// block-aligned morsels dispatched to a worker pool, the fused join
// probe/compress runs over tuple chunks into per-chunk merge tables absorbed
// in chunk order (joinStep.parallelMerge), and aggregation accumulates into
// per-worker hash tables merged in worker order. Workers read through
// sibling storage.Readers that share an atomic block-charge set, so
// IOStats.BlocksRead is identical to the sequential path; chunk-indexed
// outputs make Result rows byte-identical.
package engine

import (
	"time"

	"bytecard/internal/expr"
	"bytecard/internal/obs"
	"bytecard/internal/par"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// MorselBlocks is the number of storage blocks per scan morsel. Morsel
// boundaries are block aligned so that, during a scan, each block belongs
// to exactly one worker; the shared charge set extends the
// charge-each-block-once invariant to later phases that revisit blocks.
const MorselBlocks = 2

// morselRows is the row span of one scan morsel.
const morselRows = MorselBlocks * storage.BlockSize

// tupleChunk is the unit of parallel work over intermediate tuples (join
// probe and aggregation input).
const tupleChunk = 2048

// execCtx carries per-query execution context: the resolved worker count
// and an optional trace receiving one span per execution phase.
type execCtx struct {
	workers int
	tr      *obs.Trace
}

// span records one execution phase: which tables it covered, how many
// workers ran it, and how many rows it produced.
func (ex *execCtx) span(op string, tables []string, workers int, rows int64, d time.Duration) {
	if ex == nil || !ex.tr.Active() {
		return
	}
	ex.tr.Add(obs.Span{
		Op: op, Tables: tables, Source: "engine", Outcome: obs.OutcomeOK,
		Workers: workers, Value: float64(rows), Duration: d,
	})
}

// parallelFor reports whether a phase over n items should run parallel.
func (ex *execCtx) parallelFor(n, chunk int) bool {
	return ex != nil && ex.workers > 1 && n > chunk
}

// Chunk dispatch lives in internal/par (par.Chunks dynamic, par.Strided
// static): the pool package is the repo's one goroutine source, so worker
// accounting and scheduling determinism stay centralized there.

// chunkBounds returns the [lo, hi) item range of chunk c.
func chunkBounds(n, size, c int) (int, int) {
	lo := c * size
	hi := lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

func numChunks(n, size int) int { return (n + size - 1) / size }

// concatRows concatenates chunk-indexed row lists in chunk order.
func concatRows(parts [][]int32) []int32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// workerView is one worker's private window onto a scanState: sibling
// readers (created under the state's lock, used lock-free afterwards) that
// share the canonical readers' block-charge sets.
type workerView struct {
	st      *scanState
	readers map[string]*storage.Reader
}

func newWorkerView(st *scanState) *workerView {
	return &workerView{st: st, readers: map[string]*storage.Reader{}}
}

func (w *workerView) reader(col string) *storage.Reader {
	if r, ok := w.readers[col]; ok {
		return r
	}
	r := w.st.sibling(col)
	w.readers[col] = r
	return r
}

func (w *workerView) value(col string, row int32) types.Datum {
	return w.reader(col).Value(int(row))
}

// stageFilter applies the staged (multi-stage reader) constraint order to
// rows, filtering in place and touching each column's blocks only where
// candidates remain. reader supplies the column readers — the canonical
// scanState readers sequentially, a workerView's siblings in parallel.
func stageFilter(reader func(string) *storage.Reader, order []string, byCol map[string]expr.Constraint, rows []int32) []int32 {
	for _, c := range order {
		cons, ok := byCol[c]
		if !ok {
			continue
		}
		if cons.Empty {
			return nil
		}
		r := reader(c)
		kept := rows[:0]
		for _, row := range rows {
			if cons.Contains(r.Numeric(int(row))) {
				kept = append(kept, row)
			}
		}
		rows = kept
		if len(rows) == 0 {
			break
		}
	}
	return rows
}

// parallelSingleStage is singleStageScan's morsel-parallel form: every
// worker loads the blocks of its morsel for each touched column (the union
// across morsels equals LoadAll) and evaluates the filter row-at-a-time.
func parallelSingleStage(st *scanState, cols []string, n, workers int) []int32 {
	filter := st.t.Filter
	chunks := numChunks(n, morselRows)
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(_, c int) {
		lo, hi := chunkBounds(n, morselRows, c)
		view := newWorkerView(st)
		for _, col := range cols {
			view.reader(col).LoadRange(lo, hi)
		}
		rows := make([]int32, 0, (hi-lo)/4+1)
		for i := lo; i < hi; i++ {
			ii := int32(i)
			if filter.Eval(func(_, col string) types.Datum { return view.value(col, ii) }) {
				rows = append(rows, ii)
			}
		}
		parts[c] = rows
	})
	return concatRows(parts)
}

// parallelMultiStage is multiStageScan's morsel-parallel form: each worker
// runs the full staged column order within its morsel. Filters are
// row-local, so the surviving set — and the set of blocks holding
// survivors, which is what later stages touch — is identical to the
// sequential pass.
func parallelMultiStage(st *scanState, order []string, byCol map[string]expr.Constraint, n, workers int) []int32 {
	chunks := numChunks(n, morselRows)
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(_, c int) {
		lo, hi := chunkBounds(n, morselRows, c)
		rows := make([]int32, hi-lo)
		for i := range rows {
			rows[i] = int32(lo + i)
		}
		view := newWorkerView(st)
		parts[c] = stageFilter(view.reader, order, byCol, rows)
	})
	return concatRows(parts)
}

// parallelPushdownScan is pushdownScan's morsel-parallel form: each worker
// runs storage.BlockScan over its block-aligned morsel through sibling
// readers. Zone-map and charge decisions are block-local and the shared
// charge/skip sets count each (column, block) once, so blocks read and
// skipped — and the surviving rows, concatenated in chunk order — are
// identical to the sequential scan at any worker count.
func parallelPushdownScan(st *scanState, opts storage.ScanOptions, cols []string, n, workers int) []int32 {
	chunks := numChunks(n, morselRows)
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(_, c int) {
		lo, hi := chunkBounds(n, morselRows, c)
		view := newWorkerView(st)
		readers := make([]*storage.Reader, len(cols))
		for i, col := range cols {
			readers[i] = view.reader(col)
		}
		parts[c] = storage.BlockScan(readers, opts, lo, hi, nil)
	})
	return concatRows(parts)
}

// parallelSIPProbe is the morsel-parallel key-membership stage of a
// SIP-first scan: workers probe the shared read-only key table over their
// morsels and emit surviving candidates in row order.
func parallelSIPProbe(st *scanState, sip *joinStep, n, workers int) []int32 {
	chunks := numChunks(n, morselRows)
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(_, c int) {
		lo, hi := chunkBounds(n, morselRows, c)
		parts[c] = sip.filterRange(sip.rightKeyCols(newWorkerView(st).reader), lo, hi, nil)
	})
	return concatRows(parts)
}

// parallelStageFilterRows runs stageFilter over disjoint chunks of an
// arbitrary candidate list (the SIP-first scan's later stages; candidates
// are ascending but not block aligned — exactly-once charging is carried
// by the shared charge sets).
func parallelStageFilterRows(st *scanState, order []string, byCol map[string]expr.Constraint, candidates []int32, workers int) []int32 {
	n := len(candidates)
	chunks := numChunks(n, tupleChunk)
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(_, c int) {
		lo, hi := chunkBounds(n, tupleChunk, c)
		view := newWorkerView(st)
		parts[c] = stageFilter(view.reader, order, byCol, candidates[lo:hi])
	})
	return concatRows(parts)
}

// parallelEvalFilterRows evaluates an arbitrary filter tree over disjoint
// chunks of a candidate list (the SIP-first scan's non-conjunctive tail).
func parallelEvalFilterRows(st *scanState, filter *expr.Node, candidates []int32, workers int) []int32 {
	n := len(candidates)
	chunks := numChunks(n, tupleChunk)
	parts := make([][]int32, chunks)
	par.Chunks(workers, chunks, func(_, c int) {
		lo, hi := chunkBounds(n, tupleChunk, c)
		view := newWorkerView(st)
		kept := candidates[lo:lo]
		for _, row := range candidates[lo:hi] {
			if filter.Eval(func(_, col string) types.Datum { return view.value(col, row) }) {
				kept = append(kept, row)
			}
		}
		parts[c] = kept
	})
	return concatRows(parts)
}

// parallelGroupedAgg accumulates the joined relation into per-worker
// aggregation tables — each presized to the NDV estimate divided by the
// worker count — then merges them in worker order. The per-table resize
// counters (own growth plus merge-phase growth) sum into
// Metrics.HashResizes, keeping the presizing experiment meaningful under
// parallelism.
func parallelGroupedAgg(q *Query, p *Plan, states []*scanState, inter *intermediate, workers int) (*aggTable, int64) {
	n := inter.len()
	chunks := numChunks(n, tupleChunk)
	if workers > chunks {
		workers = chunks
	}
	perWorkerCap := p.AggCapacity / workers
	tables := make([]*aggTable, workers)
	inputs := make([]aggInputs, workers)
	par.Strided(workers, chunks, func(w, c int) {
		if tables[w] == nil {
			tables[w] = newAggTable(perWorkerCap)
			inputs[w] = bindAggInputs(q, states, inter, (*scanState).sibling)
		}
		lo, hi := chunkBounds(n, tupleChunk, c)
		inputs[w].accumulateGroups(tables[w], q.Aggs, inter.counts, lo, hi)
	})
	var final *aggTable
	var resizes int64
	for _, t := range tables {
		if t == nil {
			continue
		}
		if final == nil {
			final = t
			continue
		}
		resizes += int64(t.resizes)
		final.absorb(t, q.Aggs)
	}
	if final == nil {
		final = newAggTable(p.AggCapacity)
	}
	return final, resizes + int64(final.resizes)
}

// parallelGlobalAgg accumulates the no-GROUP-BY aggregates into per-worker
// accumulator blocks merged in worker order.
func parallelGlobalAgg(q *Query, states []*scanState, inter *intermediate, workers int) []aggAcc {
	n := inter.len()
	chunks := numChunks(n, tupleChunk)
	if workers > chunks {
		workers = chunks
	}
	blocks := make([][]aggAcc, workers)
	inputs := make([]aggInputs, workers)
	par.Strided(workers, chunks, func(w, c int) {
		if blocks[w] == nil {
			blocks[w] = newAccs(q.Aggs)
			inputs[w] = bindAggInputs(q, states, inter, (*scanState).sibling)
		}
		lo, hi := chunkBounds(n, tupleChunk, c)
		inputs[w].accumulate(blocks[w], q.Aggs, inter.counts, lo, hi)
	})
	out := newAccs(q.Aggs)
	for _, accs := range blocks {
		if accs != nil {
			mergeAccs(out, accs, q.Aggs)
		}
	}
	return out
}
