// Morsel-driven parallel execution: each scan's row space is split into
// block-aligned morsels dispatched to a worker pool, the fused join
// probe/compress runs over tuple chunks into per-chunk merge tables absorbed
// in chunk order (joinStep.parallelMerge), and aggregation accumulates into
// per-worker hash tables merged in worker order. Workers read through
// sibling storage.Readers that share an atomic block-charge set, so
// IOStats.BlocksRead is identical to the sequential path; chunk-indexed
// outputs make Result rows byte-identical. A worker binds its siblings once
// per phase, on the first morsel it claims, and a pushed-down scan
// dispatches only the blocks its zone maps cannot prune.
package engine

import (
	"slices"
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

// morsels runs scan over the size-item chunks of [0, n), dispatched
// dynamically across workers, and returns the outputs indexed by chunk.
// Each worker's view — its sibling readers — is built by bind on the first
// chunk the worker claims and reused for every later one, so set-up is paid
// per worker, not per morsel.
func morsels[V, P any](n, size, workers int, bind func() V, scan func(view V, lo, hi int) P) []P {
	chunks := numChunks(n, size)
	parts := make([]P, chunks)
	views := make([]V, min(workers, chunks))
	bound := make([]bool, len(views))
	par.Chunks(workers, chunks, func(w, c int) {
		if !bound[w] {
			views[w], bound[w] = bind(), true
		}
		lo, hi := chunkBounds(n, size, c)
		parts[c] = scan(views[w], lo, hi)
	})
	return parts
}

// scanMorsels is morsels for row scans: each worker reads through its own
// siblings of readers (the canonical readers, bound before dispatch;
// Sibling only reads its receiver, so workers may call it concurrently),
// and the chunks' rows are concatenated in chunk order.
func scanMorsels(readers []*storage.Reader, n, size, workers int, scan func(rs []*storage.Reader, lo, hi int) []int32) []int32 {
	bind := func() []*storage.Reader {
		out := make([]*storage.Reader, len(readers))
		for i, r := range readers {
			out[i] = r.Sibling()
		}
		return out
	}
	return concatRows(morsels(n, size, workers, bind, scan))
}

// stageFilter applies staged kernels to rows — kernels[i] over
// readers[i], in order — filtering in place and touching each column's
// blocks only where candidates remain.
func stageFilter(readers []*storage.Reader, kernels []storage.Kernel, rows []int32) []int32 {
	for i := range kernels {
		if rows = readers[i].Filter(&kernels[i], rows); len(rows) == 0 {
			break
		}
	}
	return rows
}

// rowValues is the column lookup filter.Eval reads row *row through: column
// cols[i] is read by readers[i].
func rowValues(cols []string, readers []*storage.Reader, row *int32) func(_, col string) types.Datum {
	return func(_, col string) types.Datum { return readers[slices.Index(cols, col)].Value(int(*row)) }
}

// evalRange appends to dst the rows of [lo, hi) that satisfy filter.
func evalRange(filter *expr.Node, cols []string, readers []*storage.Reader, lo, hi int, dst []int32) []int32 {
	var row int32
	get := rowValues(cols, readers, &row)
	for row = int32(lo); row < int32(hi); row++ {
		if filter.Eval(get) {
			dst = append(dst, row)
		}
	}
	return dst
}

// evalRows filters rows in place against filter.
func evalRows(filter *expr.Node, cols []string, readers []*storage.Reader, rows []int32) []int32 {
	var row int32
	get := rowValues(cols, readers, &row)
	kept := rows[:0]
	for _, row = range rows {
		if filter.Eval(get) {
			kept = append(kept, row)
		}
	}
	return kept
}

// parallelSingleStage is singleStageScan's morsel-parallel form: every
// worker loads the blocks of its morsel for each touched column (the union
// across morsels equals LoadAll) and evaluates the filter row-at-a-time.
func parallelSingleStage(filter *expr.Node, cols []string, readers []*storage.Reader, n, workers int) []int32 {
	return scanMorsels(readers, n, morselRows, workers, func(rs []*storage.Reader, lo, hi int) []int32 {
		for _, r := range rs {
			r.LoadRange(lo, hi)
		}
		return evalRange(filter, cols, rs, lo, hi, make([]int32, 0, (hi-lo)/4+1))
	})
}

// parallelMultiStage is multiStageScan's morsel-parallel form: each worker
// runs the full staged column order within its morsel. Filters are
// row-local, so the surviving set — and the set of blocks holding
// survivors, which is what later stages touch — is identical to the
// sequential pass.
func parallelMultiStage(readers []*storage.Reader, kernels []storage.Kernel, n, workers int) []int32 {
	return scanMorsels(readers, n, morselRows, workers, func(rs []*storage.Reader, lo, hi int) []int32 {
		rows := make([]int32, hi-lo)
		for i := range rows {
			rows[i] = int32(lo + i)
		}
		return stageFilter(rs, kernels, rows)
	})
}

// parallelPushdownScan is pushdownScan's morsel-parallel form. Zone maps
// are consulted once per block, sequentially (storage.Survivors): every
// pruned block is marked skipped on each constrained reader, as
// storage.BlockScan marks it, with one IOStats update per reader, and
// only the surviving blocks are split into morsels of MorselBlocks. At
// most one morsel's worth of survivors is scanned inline; otherwise each
// worker scans its morsels through its own siblings. Block decisions are block-local and outputs concatenate in
// block order, so rows, blocks read and blocks skipped equal the
// sequential scan's at any worker count.
func parallelPushdownScan(readers []*storage.Reader, opts storage.ScanOptions, n, workers int) []int32 {
	for i := range opts.Kernels {
		if opts.Kernels[i].Empty() {
			return nil
		}
	}
	survivors := storage.Survivors(opts.Kernels, make([]int32, 0, numChunks(n, storage.BlockSize)))
	for _, r := range readers {
		r.SkipAllBut(survivors)
	}
	scan := func(rs []*storage.Reader, blocks []int32) []int32 {
		var dst []int32
		for _, b := range blocks {
			lo := int(b) * storage.BlockSize
			dst = storage.BlockScan(rs, opts, lo, lo+storage.BlockSize, dst)
		}
		return dst
	}
	if len(survivors) <= MorselBlocks {
		return scan(readers, survivors)
	}
	return scanMorsels(readers, len(survivors), MorselBlocks, workers, func(rs []*storage.Reader, lo, hi int) []int32 {
		return scan(rs, survivors[lo:hi])
	})
}

// parallelSIPProbe is the morsel-parallel key-membership stage of a
// SIP-first scan: workers probe the shared read-only key table over their
// morsels and emit surviving candidates in row order. right is the right
// key columns bound to the canonical readers.
func parallelSIPProbe(sip *joinStep, right []wordCol, n, workers int) []int32 {
	return concatRows(morsels(n, morselRows, workers,
		func() []wordCol { return siblingCols(right) },
		func(cols []wordCol, lo, hi int) []int32 { return sip.filterRange(cols, lo, hi, nil) }))
}

// parallelStageFilterRows runs stageFilter over disjoint chunks of an
// arbitrary candidate list (the SIP-first scan's later stages; candidates
// are ascending but not block aligned — exactly-once charging is carried
// by the shared charge sets).
func parallelStageFilterRows(readers []*storage.Reader, kernels []storage.Kernel, candidates []int32, workers int) []int32 {
	return scanMorsels(readers, len(candidates), tupleChunk, workers, func(rs []*storage.Reader, lo, hi int) []int32 {
		return stageFilter(rs, kernels, candidates[lo:hi])
	})
}

// parallelEvalFilterRows evaluates an arbitrary filter tree over disjoint
// chunks of a candidate list (the SIP-first scan's non-conjunctive tail).
func parallelEvalFilterRows(filter *expr.Node, cols []string, readers []*storage.Reader, candidates []int32, workers int) []int32 {
	return scanMorsels(readers, len(candidates), tupleChunk, workers, func(rs []*storage.Reader, lo, hi int) []int32 {
		return evalRows(filter, cols, rs, candidates[lo:hi])
	})
}

// parallelGroupedAgg accumulates the joined relation into per-worker group
// tables — each presized to the NDV estimate divided by the worker count —
// then merges them in worker order. The per-table resize counters (own
// growth plus merge-phase growth) sum into Metrics.HashResizes, keeping the
// presizing experiment meaningful under parallelism.
func parallelGroupedAgg(q *Query, p *Plan, in *aggInputs, n, workers int) (*groupTable, int64) {
	chunks := numChunks(n, tupleChunk)
	if workers > chunks {
		workers = chunks
	}
	perWorkerCap := p.AggCapacity / workers
	tables := make([]*groupTable, workers)
	inputs := make([]*aggInputs, workers)
	par.Strided(workers, chunks, func(w, c int) {
		if tables[w] == nil {
			tables[w] = newGroupTable(len(q.GroupBy), perWorkerCap, q.Aggs)
			inputs[w] = in.sibling()
		}
		lo, hi := chunkBounds(n, tupleChunk, c)
		inputs[w].accumulateGroups(tables[w], lo, hi)
	})
	var final *groupTable
	var resizes int64
	for _, t := range tables {
		if t == nil {
			continue
		}
		if final == nil {
			final = t
			continue
		}
		resizes += int64(t.keys.resizes)
		final.absorb(t)
	}
	if final == nil {
		final = newGroupTable(len(q.GroupBy), p.AggCapacity, q.Aggs)
	}
	return final, resizes + int64(final.keys.resizes)
}

// parallelGlobalAgg accumulates the no-GROUP-BY aggregates into per-worker
// accumulator blocks merged in worker order.
func parallelGlobalAgg(q *Query, in *aggInputs, n, workers int) []aggAcc {
	chunks := numChunks(n, tupleChunk)
	if workers > chunks {
		workers = chunks
	}
	blocks := make([][]aggAcc, workers)
	inputs := make([]*aggInputs, workers)
	par.Strided(workers, chunks, func(w, c int) {
		if blocks[w] == nil {
			blocks[w] = newAccs(q.Aggs)
			inputs[w] = in.sibling()
		}
		lo, hi := chunkBounds(n, tupleChunk, c)
		inputs[w].accumulate(blocks[w], lo, hi)
	})
	out := newAccs(q.Aggs)
	for _, accs := range blocks {
		if accs != nil {
			mergeAccs(out, accs, q.Aggs)
		}
	}
	return out
}
