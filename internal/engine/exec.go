package engine

import (
	"fmt"
	"sort"
	"sync"
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
// most once per query).
type scanState struct {
	t       *QueryTable
	rows    []int32
	readers map[string]*storage.Reader
	io      *storage.IOStats
	// mu guards readers during parallel phases; sequential code (which
	// never overlaps a parallel phase) uses reader/value lock-free.
	mu sync.Mutex
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

// sibling returns a worker-private reader sharing the canonical reader's
// block-charge set. Safe to call from concurrent workers.
func (s *scanState) sibling(col string) *storage.Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reader(col).Sibling()
}

func (s *scanState) value(col string, row int32) types.Datum {
	return s.reader(col).Value(int(row))
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
	col := st.t.Table.ColByName
	constraints := expr.BuildConstraints(preds, func(c string, d types.Datum) (float64, bool) {
		return col(c).EncodeDatum(d)
	})
	byCol := map[string]expr.Constraint{}
	for _, c := range constraints {
		byCol[c.Col] = c
	}
	order := sp.ColOrder
	if len(order) == 0 {
		order = distinctCols(preds)
	}
	opts := storage.ScanOptions{Limit: limit}
	cols := make([]string, 0, len(order))
	for _, c := range order {
		cons, ok := byCol[c]
		if !ok {
			continue
		}
		opts.Constraints = append(opts.Constraints, cons)
		cols = append(cols, c)
	}
	if limit == 0 && ex.parallelFor(n, morselRows) {
		st.rows = parallelPushdownScan(st, opts, cols, n, ex.workers)
		return
	}
	readers := make([]*storage.Reader, len(cols))
	for i, c := range cols {
		readers[i] = st.reader(c)
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
	if filter == nil {
		for _, c := range cols {
			st.reader(c).LoadAll()
		}
		st.rows = allRows(n)
		return
	}
	if ex.parallelFor(n, morselRows) {
		st.rows = parallelSingleStage(st, cols, n, ex.workers)
		return
	}
	for _, c := range cols {
		st.reader(c).LoadAll()
	}
	rows := make([]int32, 0, n/4+1)
	for i := 0; i < n; i++ {
		ii := int32(i)
		ok := filter.Eval(func(_, col string) types.Datum { return st.value(col, ii) })
		if ok {
			rows = append(rows, ii)
		}
	}
	st.rows = rows
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
	col := st.t.Table.ColByName // shorthand
	constraints := expr.BuildConstraints(preds, func(c string, d types.Datum) (float64, bool) {
		return col(c).EncodeDatum(d)
	})
	byCol := map[string]expr.Constraint{}
	for _, c := range constraints {
		byCol[c.Col] = c
	}
	if ex.parallelFor(n, morselRows) {
		st.rows = parallelMultiStage(st, sp.ColOrder, byCol, n, ex.workers)
		return nil
	}
	st.rows = stageFilter(st.reader, sp.ColOrder, byCol, allRows(n))
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
	var candidates []int32
	if ex.parallelFor(n, morselRows) {
		candidates = parallelSIPProbe(st, sip, n, ex.workers)
	} else {
		candidates = sip.filterRange(sip.rightKeyCols(st.reader), 0, n, make([]int32, 0, sip.keys.len()))
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
	if preds, ok := filter.Conjunction(); ok {
		col := t.Table.ColByName
		constraints := expr.BuildConstraints(preds, func(c string, d types.Datum) (float64, bool) {
			return col(c).EncodeDatum(d)
		})
		order := sp.ColOrder
		if len(order) == 0 {
			order = distinctCols(preds)
		}
		byCol := map[string]expr.Constraint{}
		for _, c := range constraints {
			byCol[c.Col] = c
		}
		if ex.parallelFor(len(candidates), tupleChunk) {
			st.rows = parallelStageFilterRows(st, order, byCol, candidates, ex.workers)
		} else {
			st.rows = stageFilter(st.reader, order, byCol, candidates)
		}
	} else {
		if ex.parallelFor(len(candidates), tupleChunk) {
			st.rows = parallelEvalFilterRows(st, filter, candidates, ex.workers)
		} else {
			kept := candidates[:0]
			for _, row := range candidates {
				if filter.Eval(func(_, col string) types.Datum { return st.value(col, row) }) {
					kept = append(kept, row)
				}
			}
			st.rows = kept
		}
	}
	m.RowsMaterialized += int64(len(st.rows))
	return nil
}

func hashKey(key []types.Datum) uint64 {
	var h uint64 = 1469598103934665603
	for _, d := range key {
		h = h*1099511628211 ^ d.Hash64()
	}
	return h
}

// keysEqual reports whether two key tuples are equal. Ragged lengths and
// non-comparable kind pairs compare unequal instead of panicking (or
// silently misjudging when a is a prefix of b).
func keysEqual(a, b []types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K && !(a[i].IsNumeric() && b[i].IsNumeric()) {
			return false
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// boundCol is a ColRef resolved against an intermediate: the column's
// reader and the intermediate's row-id column of its table, bound once per
// phase so no name is looked up per tuple.
type boundCol struct {
	r    *storage.Reader
	rows []int32
}

func (b boundCol) value(ti int) types.Datum { return b.r.Value(int(b.rows[ti])) }

// bindCol resolves ref against inter. reader supplies the table's readers:
// scanState.reader sequentially, scanState.sibling for a parallel worker.
func bindCol(q *Query, states []*scanState, inter *intermediate, ref ColRef, reader func(*scanState, string) *storage.Reader) boundCol {
	for k, ti := range inter.tabs {
		if q.Tables[ti].Binding == ref.Tab {
			return boundCol{r: reader(states[ti], ref.Col), rows: inter.cols[k]}
		}
	}
	panic("engine: unresolved column " + ref.String())
}

// aggInputs is a query's group keys and aggregate inputs bound to an
// intermediate: group[i] serves q.GroupBy[i], aggs[a][c] serves
// q.Aggs[a].Cols[c].
type aggInputs struct {
	group []boundCol
	aggs  [][]boundCol
}

func bindAggInputs(q *Query, states []*scanState, inter *intermediate, reader func(*scanState, string) *storage.Reader) aggInputs {
	in := aggInputs{group: make([]boundCol, len(q.GroupBy)), aggs: make([][]boundCol, len(q.Aggs))}
	for i, g := range q.GroupBy {
		in.group[i] = bindCol(q, states, inter, g, reader)
	}
	for a, spec := range q.Aggs {
		in.aggs[a] = make([]boundCol, len(spec.Cols))
		for c, ref := range spec.Cols {
			in.aggs[a][c] = bindCol(q, states, inter, ref, reader)
		}
	}
	return in
}

// accumulate folds tuples [lo, hi) into accs (no GROUP BY).
func (in *aggInputs) accumulate(accs []aggAcc, aggs []AggSpec, counts []int64, lo, hi int) {
	ti := lo
	fetch := func(a, c int) types.Datum { return in.aggs[a][c].value(ti) }
	for ; ti < hi; ti++ {
		updateAccs(accs, aggs, fetch, counts[ti])
	}
}

// accumulateGroups folds tuples [lo, hi) into table by group key.
func (in *aggInputs) accumulateGroups(table *aggTable, aggs []AggSpec, counts []int64, lo, hi int) {
	ti := lo
	fetch := func(a, c int) types.Datum { return in.aggs[a][c].value(ti) }
	key := make([]types.Datum, len(in.group))
	for ; ti < hi; ti++ {
		for i, g := range in.group {
			key[i] = g.value(ti)
		}
		accs := table.lookup(key, func() []aggAcc { return newAccs(aggs) })
		updateAccs(accs, aggs, fetch, counts[ti])
	}
}

// executeAggregation folds the joined relation through the aggregation
// hash table (or a single accumulator when there is no GROUP BY). When the
// executor runs parallel, workers accumulate into per-worker tables sized
// from the NDV estimate divided by the worker count, then merge.
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
			accs = parallelGlobalAgg(q, states, inter, ex.workers)
		default:
			accs = newAccs(q.Aggs)
			in := bindAggInputs(q, states, inter, (*scanState).reader)
			in.accumulate(accs, q.Aggs, inter.counts, 0, n)
		}
		res.Rows = [][]types.Datum{buildOutputRow(q, nil, accs)}
		return res, nil
	}

	m.InitialAggCapacity = p.AggCapacity
	if n == 0 {
		return res, nil
	}
	var table *aggTable
	if ex.parallelFor(n, tupleChunk) {
		var resizes int64
		table, resizes = parallelGroupedAgg(q, p, states, inter, ex.workers)
		m.HashResizes += resizes
	} else {
		table = newAggTable(p.AggCapacity)
		in := bindAggInputs(q, states, inter, (*scanState).reader)
		in.accumulateGroups(table, q.Aggs, inter.counts, 0, n)
		m.HashResizes += int64(table.resizes)
	}

	for _, slot := range table.slots {
		if slot.used {
			res.Rows = append(res.Rows, buildOutputRow(q, slot.key, slot.accs))
		}
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
		bound[i] = bindCol(q, states, inter, ref, (*scanState).reader)
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

// distinctSet is an exact COUNT DISTINCT accumulator: keys are grouped by
// 64-bit hash but the actual datums are chained and compared on collision,
// so colliding datums never silently undercount the exact answer.
type distinctSet struct {
	groups map[uint64][][]types.Datum
	n      int
}

func newDistinctSet() *distinctSet {
	return &distinctSet{groups: map[uint64][][]types.Datum{}}
}

// add inserts key (copied) under hash h if no equal key is chained there.
func (s *distinctSet) add(h uint64, key []types.Datum) {
	for _, k := range s.groups[h] {
		if keysEqual(k, key) {
			return
		}
	}
	cp := make([]types.Datum, len(key))
	copy(cp, key)
	s.groups[h] = append(s.groups[h], cp)
	s.n++
}

// merge folds another set's members into s.
func (s *distinctSet) merge(o *distinctSet) {
	//bytecard:unordered-ok groups are keyed by hash; each hash chain merges independently and set semantics ignore insertion order
	for h, chain := range o.groups {
		for _, k := range chain {
			s.add(h, k)
		}
	}
}

// aggAcc accumulates one aggregate for one group.
type aggAcc struct {
	count    int64
	sum      float64
	min, max types.Datum
	seen     bool
	distinct *distinctSet
}

func newAccs(aggs []AggSpec) []aggAcc {
	accs := make([]aggAcc, len(aggs))
	for i, a := range aggs {
		if a.Kind == AggCountDistinct {
			accs[i].distinct = newDistinctSet()
		}
	}
	return accs
}

// updateAccs folds one tuple of multiplicity mult into accs; fetch(a, c)
// returns the tuple's value of aggs[a].Cols[c].
func updateAccs(accs []aggAcc, aggs []AggSpec, fetch func(a, c int) types.Datum, mult int64) {
	for i := range aggs {
		acc := &accs[i]
		switch aggs[i].Kind {
		case AggCountStar:
			acc.count += mult
		case AggCountDistinct:
			key := make([]types.Datum, len(aggs[i].Cols))
			var h uint64 = 1469598103934665603
			for k := range aggs[i].Cols {
				key[k] = fetch(i, k)
				h = h*1099511628211 ^ key[k].Hash64()
			}
			acc.distinct.add(h, key)
		case AggSum, AggAvg:
			v := fetch(i, 0)
			acc.sum += v.AsFloat() * float64(mult)
			acc.count += mult
		case AggMin, AggMax:
			v := fetch(i, 0)
			if !acc.seen {
				acc.min, acc.max, acc.seen = v, v, true
			} else {
				if v.Less(acc.min) {
					acc.min = v
				}
				if acc.max.Less(v) {
					acc.max = v
				}
			}
		}
	}
}

func (a *aggAcc) result(kind AggKind) types.Datum {
	switch kind {
	case AggCountStar:
		return types.Int(a.count)
	case AggCountDistinct:
		return types.Int(int64(a.distinct.n))
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

// aggTable is an open-addressing hash table with linear probing that counts
// its resize events — the observable the paper's aggregation optimization
// reduces by presizing from RBX's NDV estimate.
type aggTable struct {
	slots   []aggSlot
	used    int
	resizes int
}

type aggSlot struct {
	h    uint64
	key  []types.Datum
	accs []aggAcc
	used bool
}

// aggLoadFactor triggers growth.
const aggLoadFactor = 0.7

func newAggTable(expectedGroups int) *aggTable {
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	n := nextPow2(int(float64(expectedGroups)/aggLoadFactor) + 1)
	if n < 16 {
		n = 16
	}
	return &aggTable{slots: make([]aggSlot, n)}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lookup finds or inserts the group for key, copying the key on insert.
func (t *aggTable) lookup(key []types.Datum, mk func() []aggAcc) []aggAcc {
	return t.lookupHash(hashKey(key), key, mk)
}

// lookupHash is lookup with a caller-supplied hash — the merge phase
// reuses stored slot hashes, and tests inject colliding hashes to exercise
// chain behaviour.
func (t *aggTable) lookupHash(h uint64, key []types.Datum, mk func() []aggAcc) []aggAcc {
	if float64(t.used+1) > aggLoadFactor*float64(len(t.slots)) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		s := &t.slots[i]
		if !s.used {
			kc := make([]types.Datum, len(key))
			copy(kc, key)
			*s = aggSlot{h: h, key: kc, accs: mk(), used: true}
			t.used++
			return s.accs
		}
		if s.h == h && keysEqual(s.key, key) {
			return s.accs
		}
		i = (i + 1) & mask
	}
}

// absorb merges another table's groups into t (the parallel aggregation's
// merge phase), combining accumulators group by group.
func (t *aggTable) absorb(o *aggTable, aggs []AggSpec) {
	for i := range o.slots {
		s := &o.slots[i]
		if !s.used {
			continue
		}
		accs := t.lookupHash(s.h, s.key, func() []aggAcc { return newAccs(aggs) })
		mergeAccs(accs, s.accs, aggs)
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
			d.distinct.merge(s.distinct)
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

// grow doubles the table and rehashes every entry — the resize cost the
// presizing optimization avoids.
func (t *aggTable) grow() {
	t.resizes++
	old := t.slots
	t.slots = make([]aggSlot, len(old)*2)
	t.used = 0
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if !s.used {
			continue
		}
		i := s.h & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.used++
	}
}
