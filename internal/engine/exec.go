package engine

import (
	"fmt"
	"sort"
	"time"

	"bytecard/internal/expr"
	"bytecard/internal/obs"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// scanState is the runtime image of one scanned table: the surviving row
// ids and lazily created block-accounted column readers shared by later
// operators (late materialization reads land on the same readers — or on
// sibling readers sharing their charge sets — so every block is charged at
// most once per query). Readers are created only outside dispatch: a phase
// binds the canonical readers it needs first, and the dispatcher hands
// every worker but a lone one siblings of them.
type scanState struct {
	t       *QueryTable
	rows    []int32
	readers map[string]*storage.Reader
	io      *storage.IOStats
}

func (s *scanState) reader(col string) *storage.Reader {
	if r, ok := s.readers[col]; ok {
		return r
	}
	c := s.t.Table.ColByName(col)
	if c == nil {
		panic(fmt.Sprintf("engine: table %s has no column %s", s.t.Name, col))
	}
	r := c.NewReader(s.io)
	s.readers[col] = r
	return r
}

// bind returns the canonical readers of cols, in order.
func (s *scanState) bind(cols []string) []*storage.Reader {
	out := make([]*storage.Reader, len(cols))
	for i, c := range cols {
		out[i] = s.reader(c)
	}
	return out
}

// scanStages compiles a conjunctive filter of t into the staged form every
// kernel-driven scan takes: the constrained columns in evaluation order
// (order, or the predicates' own column order when order is empty) and,
// aligned with them, each column's compiled kernel.
func scanStages(t *QueryTable, preds []expr.Pred, order []string) ([]string, []storage.Kernel) {
	compiled := storage.Compile(t.Table, preds)
	if len(order) == 0 {
		return distinctCols(preds), compiled
	}
	var cols []string
	var kernels []storage.Kernel
	for _, c := range order {
		for _, k := range compiled {
			if k.Column().Name() == c {
				cols = append(cols, c)
				kernels = append(kernels, k)
				break
			}
		}
	}
	return cols, kernels
}

// Execute runs a physical plan.
func (e *Engine) Execute(p *Plan) (*Result, error) { return e.ExecuteTraced(p, nil) }

// ExecuteTraced runs a physical plan, recording one span per execution
// phase (scan, join step, aggregation) into tr; a nil tr disables
// recording.
func (e *Engine) ExecuteTraced(p *Plan, tr *obs.Trace) (*Result, error) {
	start := time.Now()
	q := p.Query
	m := Metrics{IO: &storage.IOStats{}, ReaderStrategy: map[string]string{}}
	ex := &execCtx{workers: e.workers(), s: getScratch(), tr: tr}
	defer ex.s.release()
	m.ParallelWorkers = ex.workers

	// Only the leftmost table is scanned eagerly; later tables are scanned
	// at their join step so sideways information passing can prune them
	// with the intermediate's key set before their predicate columns are
	// read.
	states := make([]*scanState, len(q.Tables))
	first := p.JoinOrder[0]
	// Limit pushdown: a single-table projection query may stop its scan at
	// the Limit-th match — the only shape where the scan's output is the
	// query's output row-for-row.
	scanLimit := 0
	if len(q.Select) > 0 && len(q.Tables) == 1 {
		scanLimit = q.Limit
	}
	scanStart := time.Now()
	st, err := e.executeScan(q, p.Scans[first], &m, ex, scanLimit)
	if err != nil {
		return nil, err
	}
	states[first] = st
	m.ReaderStrategy[q.Tables[first].Binding] = p.Scans[first].Strategy
	ex.span(obs.OpExecScan, []string{q.Tables[first].Binding}, ex.workers, int64(len(st.rows)), time.Since(scanStart))

	inter, err := e.executeJoins(q, p, states, &m, ex)
	if err != nil {
		return nil, err
	}
	m.EstFinalRows = p.EstFinalRows
	m.ActualFinalRows = inter.size()

	var res *Result
	if len(q.Select) > 0 {
		res = e.executeProjection(q, states, inter)
	} else {
		aggStart := time.Now()
		res, err = e.executeAggregation(q, p, states, inter, &m, ex)
		if err != nil {
			return nil, err
		}
		ex.span(obs.OpExecAgg, nil, ex.workers, int64(len(res.Rows)), time.Since(aggStart))
	}
	m.ScanBlocks = map[string]ScanBlockStats{}
	for i, st := range states {
		if st == nil {
			continue
		}
		var sb ScanBlockStats
		//bytecard:unordered-ok commutative integer sums over the binding's readers
		for _, r := range st.readers {
			sb.Read += r.BlocksCharged()
			sb.Skipped += r.BlocksSkipped()
		}
		m.ScanBlocks[q.Tables[i].Binding] = sb
	}
	m.TableDoublings = int64(ex.s.doublings)
	m.ExecDuration = time.Since(start)
	res.Metrics = m
	return res, nil
}

// neededColumns lists the columns of table idx the query touches beyond the
// filter: join keys, group keys, and aggregate inputs.
func neededColumns(q *Query, idx int) []string {
	t := q.Tables[idx]
	seen := map[string]bool{}
	var out []string
	add := func(col string) {
		if !seen[col] {
			seen[col] = true
			out = append(out, col)
		}
	}
	for _, j := range q.Joins {
		if j.LeftTab == t.Binding {
			add(j.LeftCol)
		}
		if j.RightTab == t.Binding {
			add(j.RightCol)
		}
	}
	for _, g := range q.GroupBy {
		if g.Tab == t.Binding {
			add(g.Col)
		}
	}
	for _, a := range q.Aggs {
		for _, c := range a.Cols {
			if c.Tab == t.Binding {
				add(c.Col)
			}
		}
	}
	for _, s := range q.Select {
		if s.Tab == t.Binding {
			add(s.Col)
		}
	}
	return out
}

// executeScan applies the table filter with the planned reader strategy.
// limit, when positive, lets a pushed-down scan stop after that many
// matches (single-table projection queries only — the caller guarantees
// the scan's output is the query's output).
func (e *Engine) executeScan(q *Query, sp *ScanPlan, m *Metrics, ex *execCtx, limit int) (*scanState, error) {
	t := q.Tables[sp.TableIdx]
	st := &scanState{t: t, readers: map[string]*storage.Reader{}, io: m.IO}
	n := t.Table.NumRows()

	switch {
	case sp.Pushdown:
		start := time.Now()
		e.pushdownScan(st, sp, n, limit, ex)
		if ex.tr.Active() {
			skipped := 0
			//bytecard:unordered-ok commutative integer sum over the scan's readers
			for _, r := range st.readers {
				skipped += r.BlocksSkipped()
			}
			ex.tr.Add(obs.Span{
				Op: obs.OpScanPushdown, Tables: []string{t.Binding},
				Source: "engine", Outcome: obs.OutcomeOK,
				Workers: ex.workers, Value: float64(skipped),
				Duration: time.Since(start),
			})
		}
	case sp.Strategy == "multi-stage":
		if err := e.multiStageScan(st, sp, n, ex); err != nil {
			return nil, err
		}
	default:
		e.singleStageScan(q, st, sp, n, ex)
	}
	m.RowsMaterialized += int64(len(st.rows))
	return st, nil
}

// pushdownScan routes one table scan through the storage.BlockScan
// contract. Only the constrained columns are handed to storage (projection
// pushdown: unreferenced columns are never read here), and survivors come
// back as a selection vector — downstream operators materialize lazily
// through the shared-charge readers. Zone maps are consulted once per
// block before dispatch (storage.Survivors): every pruned block is marked
// skipped on each constrained reader with one IOStats update per reader,
// and only the surviving blocks are split into morsels of MorselBlocks.
// Block decisions are block-local and outputs concatenate in block order,
// so rows, blocks read and blocks skipped do not depend on the worker
// count. A LIMIT scan stops at its limit-th match, so it stays one
// sequential BlockScan.
func (e *Engine) pushdownScan(st *scanState, sp *ScanPlan, n, limit int, ex *execCtx) {
	preds, _ := st.t.Filter.Conjunction() // planScan sets Pushdown only for conjunctions
	if len(preds) == 0 {
		if limit > 0 && limit < n {
			n = limit
		}
		st.rows = rowRange(ex.s, 0, n)
		return
	}
	cols, kernels := scanStages(st.t, preds, sp.ColOrder)
	opts := storage.ScanOptions{Kernels: kernels, Limit: limit}
	readers := st.bind(cols)
	if limit > 0 {
		st.rows = storage.BlockScan(readers, opts, 0, n, ex.s.int32s(min(n, limit+storage.BlockSize))[:0])
		return
	}
	for i := range kernels {
		if kernels[i].Empty() {
			return // reads and skips nothing, as BlockScan would
		}
	}
	survivors := storage.Survivors(kernels, ex.s.int32s(numChunks(n, storage.BlockSize))[:0])
	for _, r := range readers {
		r.SkipAllBut(survivors)
	}
	st.rows = scanMorsels(ex, readers, len(survivors), MorselBlocks, func(rs []*storage.Reader, lo, hi int) []int32 {
		// Room for every row of the morsel's blocks, so BlockScan never
		// regrows dst.
		dst := ex.s.int32s((hi - lo) * storage.BlockSize)[:0]
		for _, b := range survivors[lo:hi] {
			start := int(b) * storage.BlockSize
			dst = storage.BlockScan(rs, opts, start, start+storage.BlockSize, dst)
		}
		return dst
	})
}

// singleStageScan loads every block of every touched column up front (early
// materialization) and evaluates the full filter tree row-at-a-time over
// block-aligned morsels: each morsel loads its own blocks of every touched
// column, so the union across morsels is every block.
func (e *Engine) singleStageScan(q *Query, st *scanState, sp *ScanPlan, n int, ex *execCtx) {
	filter := st.t.Filter
	// Touch predicate columns plus downstream columns: the one-pass reader
	// constructs complete tuples immediately.
	seen := map[string]bool{}
	var cols []string
	if filter != nil {
		for _, p := range filter.Leaves() {
			if !seen[p.Col] {
				seen[p.Col] = true
				cols = append(cols, p.Col)
			}
		}
	}
	for _, c := range neededColumns(q, sp.TableIdx) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	st.rows = scanMorsels(ex, st.bind(cols), n, morselRows, func(rs []*storage.Reader, lo, hi int) []int32 {
		for _, r := range rs {
			r.LoadRange(lo, hi)
		}
		if filter == nil {
			return rowRange(ex.s, lo, hi)
		}
		return evalRange(ex.s, filter, cols, rs, lo, hi)
	})
}

// multiStageScan filters column by column in the planned order, touching
// later columns only for candidate rows (the staged reader whose I/O wins
// Figure 6a measures). Each morsel runs the full column order over its
// block-aligned rows; filters are row-local, so the surviving set — and the
// set of blocks holding survivors, which is what later stages touch — does
// not depend on how the rows are split.
func (e *Engine) multiStageScan(st *scanState, sp *ScanPlan, n int, ex *execCtx) error {
	preds, ok := st.t.Filter.Conjunction()
	if !ok {
		return fmt.Errorf("engine: multi-stage reader requires a conjunctive filter")
	}
	cols, kernels := scanStages(st.t, preds, sp.ColOrder)
	st.rows = scanMorsels(ex, st.bind(cols), n, morselRows, func(rs []*storage.Reader, lo, hi int) []int32 {
		return stageFilter(rs, kernels, rowRange(ex.s, lo, hi))
	})
	return nil
}

// rowRange returns the row ids lo, lo+1, ..., hi-1.
func rowRange(s *scratch, lo, hi int) []int32 {
	rows := s.int32s(hi - lo)
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	return rows
}

// executeJoins folds the scans together in the planned left-deep order. It
// stops at the first empty relation: no later table can add a tuple, so
// none of them is scanned.
func (e *Engine) executeJoins(q *Query, p *Plan, states []*scanState, m *Metrics, ex *execCtx) (*intermediate, error) {
	first := p.JoinOrder[0]
	inter := scanIntermediate(ex.s, first, states[first].rows)
	bindingIdx := map[string]int{}
	for i, t := range q.Tables {
		bindingIdx[t.Binding] = i
	}
	inter = compress(ex.s, q, bindingIdx, inter, states, p.JoinOrder[1:])
	for step, next := range p.JoinOrder[1:] {
		if inter.len() == 0 {
			return inter, nil
		}
		stepStart := time.Now()
		var err error
		inter, err = e.joinNext(q, p, states, inter, next, p.JoinOrder[2+step:], bindingIdx, m, ex)
		if err != nil {
			return nil, err
		}
		if ex.tr.Active() {
			var prefix []string
			for _, ti := range inter.tabs {
				prefix = append(prefix, q.Tables[ti].Binding)
			}
			ex.span(obs.OpExecJoin, prefix, ex.workers, int64(inter.len()), time.Since(stepStart))
		}
	}
	return inter, nil
}

// joinNext is one step of the left-deep order: it scans table next (pruned
// by the intermediate's key set) and joins it to inter. remaining lists the
// tables still to be joined afterwards.
func (e *Engine) joinNext(q *Query, p *Plan, states []*scanState, inter *intermediate, next int, remaining []int, bindingIdx map[string]int, m *Metrics, ex *execCtx) (*intermediate, error) {
	js, ok, err := bindJoinStep(ex.s, q, inter, states, next, bindingIdx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &intermediate{tabs: append(inter.tabs, next)}, nil
	}
	js.internKeys()
	// Sideways information passing: the intermediate's key set prunes the
	// next table's scan before its predicate columns are read.
	sip := js
	if e.DisableSIP {
		sip = nil
	}
	if err := e.scanForJoin(q, p, states, next, sip, m, ex); err != nil {
		return nil, err
	}
	js.groupRight()
	return js.probe(remaining, m, ex.workers)
}

// sipFirstFraction bounds when SIP runs before the table filter: a key set
// smaller than this fraction of the table is worth probing first.
const sipFirstFraction = 0.25

// scanForJoin scans the next join table, applying sideways information
// passing when the intermediate's key set is selective enough: the key
// columns are read first, non-joining rows are dropped, and only then are
// the table's predicate columns read for the survivors — so a join order
// that keeps intermediates small (good estimates) directly reduces block
// I/O.
func (e *Engine) scanForJoin(q *Query, p *Plan, states []*scanState, next int, sip *joinStep, m *Metrics, ex *execCtx) error {
	sp := p.Scans[next]
	t := q.Tables[next]
	n := t.Table.NumRows()
	sipFirst := sip != nil && float64(sip.keys.len()) < sipFirstFraction*float64(n)
	if !sipFirst {
		st, err := e.executeScan(q, sp, m, ex, 0)
		if err != nil {
			return err
		}
		states[next] = st
		m.ReaderStrategy[t.Binding] = sp.Strategy
		return nil
	}
	st := &scanState{t: t, readers: map[string]*storage.Reader{}, io: m.IO}
	states[next] = st
	m.ReaderStrategy[t.Binding] = "sip+" + sp.Strategy

	// Stage 0: key-membership probe over the whole key column(s).
	probe := newKeyProbe(sip, sip.rightKeyCols(st.reader))
	candidates := morsels(n, morselRows, ex.workers, ex.s.rowLists, probe, keyProbe.sibling, keyProbe.filterRange, ex.s.concatRows)
	m.SIPPruned += int64(n - len(candidates))

	// Stage 1..k: the table's own filter over the surviving candidates,
	// touching predicate-column blocks only where candidates remain.
	filter := t.Filter
	if filter == nil || len(candidates) == 0 {
		st.rows = candidates
		m.RowsMaterialized += int64(len(st.rows))
		return nil
	}
	// Candidates are ascending but not block aligned: exactly-once charging
	// is carried by the shared charge sets.
	if preds, ok := filter.Conjunction(); ok {
		cols, kernels := scanStages(t, preds, sp.ColOrder)
		st.rows = scanMorsels(ex, st.bind(cols), len(candidates), tupleChunk, func(rs []*storage.Reader, lo, hi int) []int32 {
			return stageFilter(rs, kernels, candidates[lo:hi])
		})
	} else {
		cols := distinctCols(filter.Leaves())
		st.rows = scanMorsels(ex, st.bind(cols), len(candidates), tupleChunk, func(rs []*storage.Reader, lo, hi int) []int32 {
			return evalRows(filter, cols, rs, candidates[lo:hi])
		})
	}
	m.RowsMaterialized += int64(len(st.rows))
	return nil
}

// boundCol is a ColRef resolved against an intermediate: the column's
// reader under its own word codec, and the intermediate's row-id column of
// its table, bound once per phase so no name is looked up per tuple.
type boundCol struct {
	wordCol
	rows []int32
}

func (b *boundCol) value(ti int) types.Datum { return b.r.Value(int(b.rows[ti])) }

// key is tuple ti's value as a key word: two tuples' words are equal
// exactly when their values are Datum-equal (selfCodec).
func (b *boundCol) key(ti int) uint64 { return b.word(b.rows[ti]) }

// bindCol resolves ref against inter through the scan states' canonical
// readers.
func bindCol(q *Query, states []*scanState, inter *intermediate, ref ColRef) boundCol {
	for k, ti := range inter.tabs {
		if q.Tables[ti].Binding == ref.Tab {
			st := states[ti]
			codec := selfCodec(st.t.Table.ColByName(ref.Col).Kind())
			return boundCol{wordCol: wordCol{r: st.reader(ref.Col), codec: codec}, rows: inter.cols[k]}
		}
	}
	panic("engine: unresolved column " + ref.String())
}

// aggInputs is a query's group keys and aggregate inputs bound to an
// intermediate: group[i] serves q.GroupBy[i], aggs[a][c] serves
// q.Aggs[a].Cols[c]. counts is the intermediate's multiplicities; groupKey
// and distinctKey are the key-word buffers of one worker.
type aggInputs struct {
	s           *scratch
	specs       []AggSpec
	group       []boundCol
	aggs        [][]boundCol
	counts      []int64
	groupKey    []uint64
	distinctKey []uint64
}

func bindAggInputs(s *scratch, q *Query, states []*scanState, inter *intermediate) *aggInputs {
	in := &aggInputs{s: s, specs: q.Aggs, group: make([]boundCol, len(q.GroupBy)), aggs: make([][]boundCol, len(q.Aggs)), counts: inter.counts}
	for i, g := range q.GroupBy {
		in.group[i] = bindCol(q, states, inter, g)
	}
	width := 0
	for a, spec := range q.Aggs {
		in.aggs[a] = make([]boundCol, len(spec.Cols))
		for c, ref := range spec.Cols {
			in.aggs[a][c] = bindCol(q, states, inter, ref)
		}
		if spec.Kind == AggCountDistinct {
			width = max(width, len(spec.Cols))
		}
	}
	in.groupKey = s.uint64s(len(in.group))
	in.distinctKey = s.uint64s(width)
	return in
}

// sibling returns a copy of in for one aggregation worker: the same columns
// read through sibling readers, and scratch of its own.
func (in *aggInputs) sibling() *aggInputs {
	sib := func(cols []boundCol) []boundCol {
		out := make([]boundCol, len(cols))
		for i, c := range cols {
			c.r = c.r.Sibling()
			out[i] = c
		}
		return out
	}
	out := &aggInputs{s: in.s, specs: in.specs, group: sib(in.group), aggs: make([][]boundCol, len(in.aggs)), counts: in.counts}
	for a, cols := range in.aggs {
		out.aggs[a] = sib(cols)
	}
	out.groupKey = in.s.uint64s(len(in.groupKey))
	out.distinctKey = in.s.uint64s(len(in.distinctKey))
	return out
}

// accumulate folds tuples [lo, hi) into accs (no GROUP BY).
func (in *aggInputs) accumulate(accs []aggAcc, lo, hi int) {
	for ti := lo; ti < hi; ti++ {
		in.update(accs, ti)
	}
}

// accumulateGroups folds tuples [lo, hi) into table by group key.
func (in *aggInputs) accumulateGroups(table *groupTable, lo, hi int) {
	key := in.groupKey
	for ti := lo; ti < hi; ti++ {
		for i := range in.group {
			key[i] = in.group[i].key(ti)
		}
		in.update(table.group(hashWords(key), key, int32(ti)), ti)
	}
}

// update folds tuple ti, with its multiplicity, into accs.
func (in *aggInputs) update(accs []aggAcc, ti int) {
	mult := in.counts[ti]
	for i, spec := range in.specs {
		acc := &accs[i]
		switch spec.Kind {
		case AggCountStar:
			acc.count += mult
		case AggCountDistinct:
			key := in.distinctKey[:len(in.aggs[i])]
			for k := range key {
				key[k] = in.aggs[i][k].key(ti)
			}
			acc.distinct.insert(hashWords(key), key)
		case AggSum, AggAvg:
			acc.sum += in.aggs[i][0].value(ti).AsFloat() * float64(mult)
			acc.count += mult
		case AggMin, AggMax:
			acc.see(in.aggs[i][0].value(ti))
		}
	}
}

// executeAggregation folds the joined relation through the group table (or
// a single accumulator block when there is no GROUP BY). Workers
// accumulate into per-worker accumulators — group tables each presized to
// the full NDV estimate — merged in worker order into the first.
// Metrics.HashResizes counts the doublings of that merged table, which
// ends up holding every group, so the count follows from the group count
// and the presize, not from how the tuples were split.
func (e *Engine) executeAggregation(q *Query, p *Plan, states []*scanState, inter *intermediate, m *Metrics, ex *execCtx) (*Result, error) {
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	n := inter.len()

	if len(q.GroupBy) == 0 {
		m.InitialAggCapacity = 0
		if n == 0 {
			// The join stopped early; its later tables were never scanned,
			// so there is nothing to bind.
			res.Rows = [][]types.Datum{buildOutputRow(q, nil, newAccs(ex.s, q.Aggs))}
			return res, nil
		}
		parts := strided(bindAggInputs(ex.s, q, states, inter), n, ex.workers,
			func() []aggAcc { return newAccs(ex.s, q.Aggs) }, (*aggInputs).accumulate)
		for _, accs := range parts[1:] {
			mergeAccs(parts[0], accs, q.Aggs)
		}
		res.Rows = [][]types.Datum{buildOutputRow(q, nil, parts[0])}
		return res, nil
	}

	m.InitialAggCapacity = p.AggCapacity
	if n == 0 {
		return res, nil
	}
	in := bindAggInputs(ex.s, q, states, inter)
	tables := strided(in, n, ex.workers, func() *groupTable {
		return newGroupTable(ex.s, len(q.GroupBy), p.AggCapacity, q.Aggs)
	}, (*aggInputs).accumulateGroups)
	table := tables[0]
	for _, t := range tables[1:] {
		table.absorb(t)
	}
	m.HashResizes = int64(table.keys.resizes)

	// Group keys are read back as Datums once per group, from the tuple
	// that opened it.
	key := make([]types.Datum, len(in.group))
	for g, rep := range table.reps {
		for i := range in.group {
			key[i] = in.group[i].value(int(rep))
		}
		res.Rows = append(res.Rows, buildOutputRow(q, key, table.accs(g)))
	}
	sortRows(res.Rows)
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// executeProjection materializes the projected columns of the surviving
// tuples — the late-materialization endpoint: selection vectors become
// output rows only here. Rows come back in scan/join order (scans emit
// ascending row ids; joins emit in probe order), which is deterministic at
// any worker count, so no sort runs; LIMIT truncates.
func (e *Engine) executeProjection(q *Query, states []*scanState, inter *intermediate) *Result {
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	if inter.len() == 0 {
		return res
	}
	bound := make([]boundCol, len(q.Select))
	for i, ref := range q.Select {
		bound[i] = bindCol(q, states, inter, ref)
	}
	for ti, count := range inter.counts {
		for c := count; c > 0; c-- {
			row := make([]types.Datum, len(bound))
			for i, bc := range bound {
				row[i] = bc.value(ti)
			}
			res.Rows = append(res.Rows, row)
			if q.Limit > 0 && len(res.Rows) >= q.Limit {
				return res
			}
		}
	}
	return res
}

func buildOutputRow(q *Query, key []types.Datum, accs []aggAcc) []types.Datum {
	row := make([]types.Datum, len(q.outPlan))
	for i, item := range q.outPlan {
		if item.isAgg {
			row[i] = accs[item.aggIdx].result(q.Aggs[item.aggIdx].Kind)
		} else {
			row[i] = key[item.groupIdx]
		}
	}
	return row
}

// sortRows orders result rows deterministically. Cells of incomparable
// kinds (string vs numeric, or distinct nested kinds) order by kind rather
// than panicking in Datum.Compare, so mixed-kind result sets still sort
// the same way every run.
func sortRows(rows [][]types.Datum) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k].K != b[k].K && !(a[k].IsNumeric() && b[k].IsNumeric()) {
				return a[k].K < b[k].K
			}
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// aggAcc accumulates one aggregate for one group. COUNT DISTINCT keeps its
// members as key words, one per column; MIN and MAX keep Datums, because
// dictionary codes are not in string order.
type aggAcc struct {
	count    int64
	sum      float64
	min, max types.Datum
	seen     bool
	distinct *wordTable
}

// appendAccs appends one fresh accumulator per aggregate to accs, COUNT
// DISTINCT sets drawn from s.
func appendAccs(s *scratch, accs []aggAcc, aggs []AggSpec) []aggAcc {
	for _, a := range aggs {
		var acc aggAcc
		if a.Kind == AggCountDistinct {
			acc.distinct = newWordTable(s, len(a.Cols), 0)
		}
		accs = append(accs, acc)
	}
	return accs
}

func newAccs(s *scratch, aggs []AggSpec) []aggAcc {
	return appendAccs(s, make([]aggAcc, 0, len(aggs)), aggs)
}

// see folds v into a MIN/MAX accumulator.
func (a *aggAcc) see(v types.Datum) {
	if !a.seen {
		a.min, a.max, a.seen = v, v, true
		return
	}
	if v.Less(a.min) {
		a.min = v
	}
	if a.max.Less(v) {
		a.max = v
	}
}

func (a *aggAcc) result(kind AggKind) types.Datum {
	switch kind {
	case AggCountStar:
		return types.Int(a.count)
	case AggCountDistinct:
		return types.Int(int64(a.distinct.len()))
	case AggSum:
		return types.Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return types.Float(0)
		}
		return types.Float(a.sum / float64(a.count))
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	default:
		panic("engine: unknown aggregate kind")
	}
}

// mergeAccs combines src's accumulators into dst (dst may be freshly
// zeroed, in which case the merge equals a copy).
func mergeAccs(dst, src []aggAcc, aggs []AggSpec) {
	for i := range aggs {
		d, s := &dst[i], &src[i]
		switch aggs[i].Kind {
		case AggCountStar:
			d.count += s.count
		case AggCountDistinct:
			d.distinct.absorb(s.distinct)
		case AggSum, AggAvg:
			d.sum += s.sum
			d.count += s.count
		case AggMin, AggMax:
			if !s.seen {
				continue
			}
			if !d.seen {
				d.min, d.max, d.seen = s.min, s.max, true
				continue
			}
			if s.min.Less(d.min) {
				d.min = s.min
			}
			if d.max.Less(s.max) {
				d.max = s.max
			}
		}
	}
}

// aggLoadFactor triggers a group table's growth.
const aggLoadFactor = 0.7

// groupTable is GROUP BY's hash table. Group keys are key words interned
// in a wordTable that doubles past aggLoadFactor and counts its doublings —
// the resize events the paper's aggregation optimization avoids by
// presizing from RBX's NDV estimate. Each group's accumulators (one per
// aggregate) and the tuple that opened it are stored by group id.
type groupTable struct {
	keys *wordTable
	aggs []AggSpec
	acc  []aggAcc
	reps []int32
}

// newGroupTable draws a table sized for expectedGroups at aggLoadFactor
// (16 slots at least) from s.
func newGroupTable(s *scratch, width, expectedGroups int, aggs []AggSpec) *groupTable {
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	n := nextPow2(int(float64(expectedGroups)/aggLoadFactor) + 1)
	if n < 16 {
		n = 16
	}
	return &groupTable{keys: s.table(width, n, aggLoadFactor), aggs: aggs}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// group returns the accumulators of the group keyed by key (hash h),
// opening it with representative tuple rep when absent.
func (t *groupTable) group(h uint64, key []uint64, rep int32) []aggAcc {
	id, added := t.keys.insert(h, key)
	if added {
		t.acc = appendAccs(t.keys.s, t.acc, t.aggs)
		t.reps = t.keys.s.push32(t.reps, rep)
	}
	return t.accs(int(id))
}

// accs returns group g's accumulators.
func (t *groupTable) accs(g int) []aggAcc {
	n := len(t.aggs)
	return t.acc[g*n : (g+1)*n]
}

// absorb merges o's groups into t in o's group order, under o's stored
// hashes and words (the parallel aggregation's merge phase).
func (t *groupTable) absorb(o *groupTable) {
	for g, h := range o.keys.hashes {
		mergeAccs(t.group(h, o.keys.key(int32(g)), o.reps[g]), o.accs(g), t.aggs)
	}
}
