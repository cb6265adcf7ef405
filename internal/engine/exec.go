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
// most once per query). Readers are created only by sequential code: a
// parallel phase binds the canonical readers it needs before dispatch and
// hands each worker siblings of them.
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
	ex := &execCtx{workers: e.workers(), tr: tr}
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
// pushdown: unreferenced columns are never read here), zone maps prune
// whole blocks before any charge, and survivors come back as a selection
// vector — downstream operators materialize lazily through the shared-
// charge readers. Block decisions are block-local, so the morsel-parallel
// form reads and skips exactly the blocks the sequential form does.
func (e *Engine) pushdownScan(st *scanState, sp *ScanPlan, n, limit int, ex *execCtx) {
	preds, _ := st.t.Filter.Conjunction() // planScan sets Pushdown only for conjunctions
	if len(preds) == 0 {
		if limit > 0 && limit < n {
			n = limit
		}
		st.rows = allRows(n)
		return
	}
	cols, kernels := scanStages(st.t, preds, sp.ColOrder)
	opts := storage.ScanOptions{Kernels: kernels, Limit: limit}
	readers := st.bind(cols)
	if limit == 0 && ex.parallelFor(n, morselRows) {
		st.rows = parallelPushdownScan(readers, opts, n, ex.workers)
		return
	}
	st.rows = storage.BlockScan(readers, opts, 0, n, nil)
}

// singleStageScan loads every block of every touched column up front (early
// materialization) and evaluates the full filter tree row-at-a-time,
// splitting the row space into block-aligned morsels when the executor
// runs parallel.
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
	readers := st.bind(cols)
	if filter != nil && ex.parallelFor(n, morselRows) {
		st.rows = parallelSingleStage(filter, cols, readers, n, ex.workers)
		return
	}
	for _, r := range readers {
		r.LoadAll()
	}
	if filter == nil {
		st.rows = allRows(n)
		return
	}
	st.rows = evalRange(filter, cols, readers, 0, n, make([]int32, 0, n/4+1))
}

// multiStageScan filters column by column in the planned order, touching
// later columns only for candidate rows (the staged reader whose I/O wins
// Figure 6a measures). Under parallel execution each worker runs the full
// column order within its block-aligned morsel.
func (e *Engine) multiStageScan(st *scanState, sp *ScanPlan, n int, ex *execCtx) error {
	preds, ok := st.t.Filter.Conjunction()
	if !ok {
		return fmt.Errorf("engine: multi-stage reader requires a conjunctive filter")
	}
	cols, kernels := scanStages(st.t, preds, sp.ColOrder)
	readers := st.bind(cols)
	if ex.parallelFor(n, morselRows) {
		st.rows = parallelMultiStage(readers, kernels, n, ex.workers)
		return nil
	}
	st.rows = stageFilter(readers, kernels, allRows(n))
	return nil
}

func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// executeJoins folds the scans together in the planned left-deep order. It
// stops at the first empty relation: no later table can add a tuple, so
// none of them is scanned.
func (e *Engine) executeJoins(q *Query, p *Plan, states []*scanState, m *Metrics, ex *execCtx) (*intermediate, error) {
	first := p.JoinOrder[0]
	inter := scanIntermediate(first, states[first].rows)
	bindingIdx := map[string]int{}
	for i, t := range q.Tables {
		bindingIdx[t.Binding] = i
	}
	inter = compress(q, bindingIdx, inter, states, p.JoinOrder[1:])
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
	js, ok, err := bindJoinStep(q, inter, states, next, bindingIdx)
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
	return js.probe(remaining, m, ex)
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

	// Stage 0: key-membership probe over the whole key column(s), morsel
	// parallel when the table is large enough.
	right := sip.rightKeyCols(st.reader)
	var candidates []int32
	if ex.parallelFor(n, morselRows) {
		candidates = parallelSIPProbe(sip, right, n, ex.workers)
	} else {
		candidates = sip.filterRange(right, 0, n, make([]int32, 0, sip.keys.len()))
	}
	m.SIPPruned += int64(n - len(candidates))

	// Stage 1..k: the table's own filter over the surviving candidates,
	// touching predicate-column blocks only where candidates remain.
	filter := t.Filter
	if filter == nil || len(candidates) == 0 {
		st.rows = candidates
		m.RowsMaterialized += int64(len(st.rows))
		return nil
	}
	parallel := ex.parallelFor(len(candidates), tupleChunk)
	if preds, ok := filter.Conjunction(); ok {
		cols, kernels := scanStages(t, preds, sp.ColOrder)
		readers := st.bind(cols)
		if parallel {
			st.rows = parallelStageFilterRows(readers, kernels, candidates, ex.workers)
		} else {
			st.rows = stageFilter(readers, kernels, candidates)
		}
	} else {
		cols := distinctCols(filter.Leaves())
		readers := st.bind(cols)
		if parallel {
			st.rows = parallelEvalFilterRows(filter, cols, readers, candidates, ex.workers)
		} else {
			st.rows = evalRows(filter, cols, readers, candidates)
		}
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
// and distinctKey are the key-word scratch of one worker.
type aggInputs struct {
	specs       []AggSpec
	group       []boundCol
	aggs        [][]boundCol
	counts      []int64
	groupKey    []uint64
	distinctKey []uint64
}

func bindAggInputs(q *Query, states []*scanState, inter *intermediate) *aggInputs {
	in := &aggInputs{specs: q.Aggs, group: make([]boundCol, len(q.GroupBy)), aggs: make([][]boundCol, len(q.Aggs)), counts: inter.counts}
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
	in.groupKey = make([]uint64, len(in.group))
	in.distinctKey = make([]uint64, width)
	return in
}

// sibling returns a copy of in for one parallel worker: the same columns
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
	out := &aggInputs{specs: in.specs, group: sib(in.group), aggs: make([][]boundCol, len(in.aggs)), counts: in.counts}
	for a, cols := range in.aggs {
		out.aggs[a] = sib(cols)
	}
	out.groupKey = make([]uint64, len(in.groupKey))
	out.distinctKey = make([]uint64, len(in.distinctKey))
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
// a single accumulator block when there is no GROUP BY). When the executor
// runs parallel, workers accumulate into per-worker tables sized from the
// NDV estimate divided by the worker count, then merge.
func (e *Engine) executeAggregation(q *Query, p *Plan, states []*scanState, inter *intermediate, m *Metrics, ex *execCtx) (*Result, error) {
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	n := inter.len()

	if len(q.GroupBy) == 0 {
		m.InitialAggCapacity = 0
		var accs []aggAcc
		switch {
		case n == 0:
			// The join stopped early; its later tables were never scanned,
			// so there is nothing to bind.
			accs = newAccs(q.Aggs)
		case ex.parallelFor(n, tupleChunk):
			accs = parallelGlobalAgg(q, bindAggInputs(q, states, inter), n, ex.workers)
		default:
			accs = newAccs(q.Aggs)
			bindAggInputs(q, states, inter).accumulate(accs, 0, n)
		}
		res.Rows = [][]types.Datum{buildOutputRow(q, nil, accs)}
		return res, nil
	}

	m.InitialAggCapacity = p.AggCapacity
	if n == 0 {
		return res, nil
	}
	in := bindAggInputs(q, states, inter)
	var table *groupTable
	if ex.parallelFor(n, tupleChunk) {
		var resizes int64
		table, resizes = parallelGroupedAgg(q, p, in, n, ex.workers)
		m.HashResizes += resizes
	} else {
		table = newGroupTable(len(q.GroupBy), p.AggCapacity, q.Aggs)
		in.accumulateGroups(table, 0, n)
		m.HashResizes += int64(table.keys.resizes)
	}

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

// appendAccs appends one fresh accumulator per aggregate to accs.
func appendAccs(accs []aggAcc, aggs []AggSpec) []aggAcc {
	for _, a := range aggs {
		var acc aggAcc
		if a.Kind == AggCountDistinct {
			acc.distinct = newWordTable(len(a.Cols), 0)
		}
		accs = append(accs, acc)
	}
	return accs
}

func newAccs(aggs []AggSpec) []aggAcc { return appendAccs(make([]aggAcc, 0, len(aggs)), aggs) }

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

// newGroupTable sizes the table for expectedGroups at aggLoadFactor (16
// slots at least).
func newGroupTable(width, expectedGroups int, aggs []AggSpec) *groupTable {
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	n := nextPow2(int(float64(expectedGroups)/aggLoadFactor) + 1)
	if n < 16 {
		n = 16
	}
	return &groupTable{keys: newLoadedWordTable(width, n, aggLoadFactor), aggs: aggs}
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
		t.acc = appendAccs(t.acc, t.aggs)
		t.reps = append(t.reps, rep)
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
