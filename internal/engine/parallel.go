// Morsel-driven execution: each executor phase has one body over an item
// range [lo, hi), and the dispatchers here decide how many times it runs.
// Scans, SIP probes and the fused join probe/compress split their items
// into chunks dispatched dynamically across workers (morsels); aggregation
// assigns chunks to workers statically and merges per-worker accumulators
// in worker order (strided). With one worker, or a single chunk, a
// dispatcher calls the body once over every item, on the canonical readers
// or inputs: no sibling is bound, nothing is concatenated, no goroutine
// starts. Otherwise workers read through sibling storage.Readers that share
// an atomic block-charge set, so IOStats.BlocksRead does not depend on the
// worker count, and chunk-indexed outputs joined in chunk order make Result
// rows byte-identical at every worker count. A worker binds its siblings
// once per phase, on the first chunk it claims.
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
// probe and aggregation input) and over SIP candidate lists.
const tupleChunk = 2048

// execCtx carries per-query execution context: the resolved worker count,
// the query's working memory, and an optional trace receiving one span per
// execution phase.
type execCtx struct {
	workers int
	s       *scratch
	tr      *obs.Trace
}

// span records one execution phase: which tables it covered, how many
// workers ran it, and how many rows it produced.
func (ex *execCtx) span(op string, tables []string, workers int, rows int64, d time.Duration) {
	if !ex.tr.Active() {
		return
	}
	ex.tr.Add(obs.Span{
		Op: op, Tables: tables, Source: "engine", Outcome: obs.OutcomeOK,
		Workers: workers, Value: float64(rows), Duration: d,
	})
}

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
func (s *scratch) concatRows(parts [][]int32) []int32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := s.int32s(total)[:0]
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// morsels runs scan over the size-item chunks of [0, n) and joins the
// chunks' outputs in chunk order. With one worker, or at most one chunk,
// it returns scan(view, 0, n). Otherwise chunks are dispatched dynamically
// (par.Chunks) and each worker reads through sibling(view), bound on the
// first chunk the worker claims and reused for every later one, so set-up
// is paid per worker, not per morsel. The chunks' outputs are collected in
// lend(chunks), a list from the query's scratch, so a dispatch's own
// allocations depend on its worker count alone.
func morsels[V, P any](n, size, workers int, lend func(int) []P, view V, sibling func(V) V, scan func(view V, lo, hi int) P, join func(parts []P) P) P {
	chunks := numChunks(n, size)
	if workers <= 1 || chunks <= 1 {
		return scan(view, 0, n)
	}
	parts := lend(chunks)
	views := make([]V, min(workers, chunks))
	bound := make([]bool, len(views))
	par.Chunks(workers, chunks, func(w, c int) {
		if !bound[w] {
			views[w], bound[w] = sibling(view), true
		}
		lo, hi := chunkBounds(n, size, c)
		parts[c] = scan(views[w], lo, hi)
	})
	return join(parts)
}

// siblingReaders rebinds readers to worker-private siblings sharing their
// charge sets. Sibling only reads its receiver, so workers may call it on
// the canonical readers concurrently.
func siblingReaders(readers []*storage.Reader) []*storage.Reader {
	out := make([]*storage.Reader, len(readers))
	for i, r := range readers {
		out[i] = r.Sibling()
	}
	return out
}

// scanMorsels is morsels for row scans over readers (the canonical
// readers, bound before dispatch): the chunks' rows are concatenated in
// chunk order.
func scanMorsels(ex *execCtx, readers []*storage.Reader, n, size int, scan func(rs []*storage.Reader, lo, hi int) []int32) []int32 {
	return morsels(n, size, ex.workers, ex.s.rowLists, readers, siblingReaders, scan, ex.s.concatRows)
}

// strided folds the tupleChunk chunks of [0, n) into one accumulator per
// worker, chunk c going to worker c mod workers in ascending order
// (par.Strided). Static assignment fixes each worker's accumulation order,
// so floating-point partial sums and hash-table growth repeat run to run.
// fresh makes one worker's accumulator. With one worker, or at most one
// chunk, the result is the single fresh() that fold(in, acc, 0, n) filled;
// otherwise each worker folds through in.sibling(). Accumulators come back
// in worker order.
func strided[A any](in *aggInputs, n, workers int, fresh func() A, fold func(in *aggInputs, acc A, lo, hi int)) []A {
	chunks := numChunks(n, tupleChunk)
	workers = min(workers, chunks)
	if workers <= 1 {
		acc := fresh()
		fold(in, acc, 0, n)
		return []A{acc}
	}
	accs := make([]A, workers)
	inputs := make([]*aggInputs, workers)
	par.Strided(workers, chunks, func(w, c int) {
		if inputs[w] == nil {
			accs[w], inputs[w] = fresh(), in.sibling()
		}
		lo, hi := chunkBounds(n, tupleChunk, c)
		fold(inputs[w], accs[w], lo, hi)
	})
	return accs
}

// rowValues is the column lookup filter.Eval reads row *row through: column
// cols[i] is read by readers[i].
func rowValues(cols []string, readers []*storage.Reader, row *int32) func(_, col string) types.Datum {
	return func(_, col string) types.Datum { return readers[slices.Index(cols, col)].Value(int(*row)) }
}

// evalRange returns the rows of [lo, hi) that satisfy filter.
func evalRange(s *scratch, filter *expr.Node, cols []string, readers []*storage.Reader, lo, hi int) []int32 {
	dst := s.int32s((hi-lo)/4 + 1)[:0]
	var row int32
	get := rowValues(cols, readers, &row)
	for row = int32(lo); row < int32(hi); row++ {
		if filter.Eval(get) {
			dst = s.push32(dst, row)
		}
	}
	return dst
}
