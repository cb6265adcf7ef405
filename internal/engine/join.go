package engine

import (
	"fmt"
	"math"
	"sort"

	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// intermediate is a joined relation, column-major: one row-id column per
// joined table plus a multiplicity per tuple. Compression merges tuples
// that agree on every column the rest of the plan can still observe
// (remaining join keys, group keys, aggregate inputs), summing their
// multiplicities — the groupjoin-style optimization that keeps COUNT-heavy
// star joins bounded even when their logical cardinality reaches the
// paper's 10^12 range. The columns are pointer-free and sized once per
// join step.
type intermediate struct {
	// tabs lists query-table indices in join order.
	tabs []int
	// cols[k][i] is tuple i's row id in table tabs[k].
	cols [][]int32
	// counts[i] is the logical multiplicity of tuple i.
	counts []int64
}

// scanIntermediate is the one-table relation a scan's surviving rows form:
// every tuple once. rows is shared, not copied.
func scanIntermediate(s *scratch, tab int, rows []int32) *intermediate {
	in := &intermediate{tabs: []int{tab}, cols: [][]int32{rows}, counts: s.int64s(len(rows))}
	for i := range in.counts {
		in.counts[i] = 1
	}
	return in
}

func (in *intermediate) len() int { return len(in.counts) }

// size is the relation's logical cardinality: its multiplicities' sum.
func (in *intermediate) size() int64 {
	var n int64
	for _, c := range in.counts {
		n += c
	}
	return n
}

// pos returns the column position of query table tab, or -1.
func (in *intermediate) pos(tab int) int {
	for k, t := range in.tabs {
		if t == tab {
			return k
		}
	}
	return -1
}

// wordCodec says how one column's values become 64-bit key words. Within
// one use (the two sides of a join condition, or one column of a compress
// signature) two values are Datum-equal exactly when their words are equal,
// so joins and merges compare machine words and never box a Datum.
type wordCodec uint8

const (
	// codecInt: the int64 itself (int = int, and any int column's own
	// equality).
	codecInt wordCodec = iota
	// codecFloat: the float64's bits, with -0 folded into +0.
	codecFloat
	// codecIntAsFloat: an int column joined to a float column compares
	// through its float image, as Datum.Compare does.
	codecIntAsFloat
	// codecDict: the dictionary code, through remap when the other side has
	// a dictionary of its own.
	codecDict
)

// wordCol is one column bound for word access: reader, encoding, and — for
// columns of the intermediate — the tuple position to take the row id from.
// Columns are bound once per join step, not looked up per tuple.
type wordCol struct {
	r     *storage.Reader
	pos   int
	codec wordCodec
	remap []int32
}

func (c *wordCol) word(row int32) uint64 {
	switch c.codec {
	case codecInt:
		return uint64(c.r.Int(int(row)))
	case codecIntAsFloat:
		return math.Float64bits(float64(c.r.Int(int(row))))
	case codecFloat:
		f := c.r.Float(int(row))
		if f == 0 {
			return 0
		}
		return math.Float64bits(f)
	default:
		code := c.r.Code(int(row))
		if c.remap != nil {
			code = c.remap[code]
		}
		return uint64(code)
	}
}

// siblingCols rebinds cols to worker-private sibling readers sharing the
// canonical readers' block-charge sets.
func siblingCols(cols []wordCol) []wordCol {
	out := make([]wordCol, len(cols))
	for i, c := range cols {
		c.r = c.r.Sibling()
		out[i] = c
	}
	return out
}

// selfCodec is the encoding under which a column's own values compare.
func selfCodec(k types.Kind) wordCodec {
	switch k {
	case types.KindInt64:
		return codecInt
	case types.KindFloat64:
		return codecFloat
	default:
		return codecDict
	}
}

// pairCodecs picks the encodings under which values of l and r compare as
// Datum.Equal would. ok is false for a pair no value of which can be equal
// (a string column against a numeric one, or two different nested kinds).
func pairCodecs(l, r *storage.Column) (lc, rc wordCol, ok bool) {
	lk, rk := l.Kind(), r.Kind()
	numeric := func(k types.Kind) bool { return k == types.KindInt64 || k == types.KindFloat64 }
	switch {
	case lk == types.KindInt64 && rk == types.KindInt64:
		return wordCol{codec: codecInt}, wordCol{codec: codecInt}, true
	case numeric(lk) && numeric(rk):
		viaFloat := func(k types.Kind) wordCodec {
			if k == types.KindInt64 {
				return codecIntAsFloat
			}
			return codecFloat
		}
		return wordCol{codec: viaFloat(lk)}, wordCol{codec: viaFloat(rk)}, true
	case lk == rk:
		lc, rc = wordCol{codec: codecDict}, wordCol{codec: codecDict}
		if l != r {
			lc.remap, rc.remap = storage.MergeDicts(l, r)
		}
		return lc, rc, true
	default:
		return wordCol{}, wordCol{}, false
	}
}

// hashWords hashes a key of words. Both sides of a join and every insert
// into a wordTable go through it.
func hashWords(key []uint64) uint64 {
	h := uint64(wordHashSeed)
	for _, w := range key {
		h = mixWord(h, w)
	}
	return h
}

const wordHashSeed = 0x9e3779b97f4a7c15

func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// wordTable is an open-addressing (linear probing) table from fixed-width
// word keys to dense ids handed out in insertion order. It is the one hash
// structure of the executor: the intermediate's distinct join keys (which
// double as the SIP set and as the index the next table's rows are grouped
// by), the compress table, the GROUP BY table and every COUNT DISTINCT
// accumulator are wordTables. Keys, hashes and slots are flat pointer-free
// arrays drawn from the query's scratch.
type wordTable struct {
	s      *scratch
	width  int
	slots  []int32 // id+1, 0 = empty
	hashes []uint64
	words  []uint64 // width words per id
	// load is the fill fraction past which the table doubles; limit is the
	// entry count it allows at the current size.
	load  float64
	limit int
	// resizes counts doublings.
	resizes int
}

// wordTableMaxPresize caps the slots a join-pipeline table starts with: its
// hint is a tuple count, but it holds distinct keys, often far fewer, and
// growing past the cap costs one rehash from the stored hashes per
// doubling.
const wordTableMaxPresize = 1 << 16

// newWordTable draws a join-pipeline table from s at load 1/2, with room
// for hint keys (16 slots at least, wordTableMaxPresize at most).
func newWordTable(s *scratch, width, hint int) *wordTable {
	n := min(max(nextPow2(2*hint), 16), wordTableMaxPresize)
	return s.table(width, n, 0.5)
}

func (t *wordTable) len() int { return len(t.hashes) }

// key returns the words of entry id.
func (t *wordTable) key(id int32) []uint64 {
	return t.words[int(id)*t.width : (int(id)+1)*t.width]
}

// match compares words only: at low load most probes land on the key
// itself, so checking the stored hash first would just touch a second array.
func (t *wordTable) match(id int32, key []uint64) bool {
	for i, w := range t.key(id) {
		if w != key[i] {
			return false
		}
	}
	return true
}

// find returns the id of key, or -1. h must be the key's hash under the
// function every insert used (tests pass a constant to force collisions).
func (t *wordTable) find(h uint64, key []uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.match(s-1, key) {
			return s - 1
		}
	}
}

// insert returns the id of key, adding it (words copied) when absent. The
// table doubles only to add a key past its limit, so its doublings depend
// only on how many distinct keys it holds.
func (t *wordTable) insert(h uint64, key []uint64) (id int32, added bool) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if t.match(s-1, key) {
			return s - 1, false
		}
	}
	if len(t.hashes) >= t.limit {
		t.grow()
		i = t.freeSlot(h)
	}
	id = int32(len(t.hashes))
	t.slots[i] = id + 1
	if len(t.hashes) == cap(t.hashes) {
		t.hashes = regrow(t.s, &t.s.u64, t.hashes, 1)
	}
	if cap(t.words)-len(t.words) < t.width {
		t.words = regrow(t.s, &t.s.u64, t.words, t.width)
	}
	t.hashes = append(t.hashes, h)
	t.words = append(t.words, key...)
	return id, true
}

// absorb inserts o's keys into t under o's stored hashes, in o's id order.
func (t *wordTable) absorb(o *wordTable) {
	for id, h := range o.hashes {
		t.insert(h, o.key(int32(id)))
	}
}

// grow doubles the slot array, trading the old one back to the scratch.
func (t *wordTable) grow() {
	t.resizes++
	t.slots = t.s.swapSlots(t.slots, 2*len(t.slots))
	t.limit = int(t.load * float64(len(t.slots)))
	for id, h := range t.hashes {
		t.slots[t.freeSlot(h)] = int32(id) + 1
	}
}

// freeSlot returns the first empty slot on hash h's probe path.
func (t *wordTable) freeSlot(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// clearSlots zeroes the slots the entries occupy, found from their stored
// hashes along their probe paths, so clearing costs entries, not slots. A
// table at least a quarter full is cleared whole.
func (t *wordTable) clearSlots() {
	if 4*len(t.hashes) >= len(t.slots) {
		clear(t.slots)
		return
	}
	mask := uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		i := h & mask
		for t.slots[i] != int32(id)+1 {
			i = (i + 1) & mask
		}
		t.slots[i] = 0
	}
}

// mergeTable is the compress table: one entry per distinct signature (the
// words of every live column), keeping the first tuple seen with that
// signature — as a (left, right) pair of indices the caller interprets —
// and the sum of the multiplicities merged into it. Entries stay in
// first-occurrence order.
type mergeTable struct {
	sigs        *wordTable
	left, right []int32
	counts      []int64
}

func newMergeTable(s *scratch, width, hint int) mergeTable {
	return mergeTable{sigs: newWordTable(s, width, hint)}
}

func (m *mergeTable) add(h uint64, sig []uint64, left, right int32, count int64) {
	id, added := m.sigs.insert(h, sig)
	if added {
		s := m.sigs.s
		m.left = s.push32(m.left, left)
		m.right = s.push32(m.right, right)
		m.counts = s.push64(m.counts, count)
		return
	}
	m.counts[id] += count
}

// absorb merges o's entries into m in o's order. Absorbing per-chunk tables
// in chunk order therefore leaves m exactly as one pass over all
// chunks would: an entry's position and representative are those of its
// first occurrence, and integer multiplicities sum the same in any order.
func (m *mergeTable) absorb(o *mergeTable) {
	for id := range o.counts {
		m.add(o.sigs.hashes[id], o.sigs.key(int32(id)), o.left[id], o.right[id], o.counts[id])
	}
}

// liveColumns lists, per table of joined, the columns later plan stages can
// still observe: keys of join conditions involving tables not yet joined,
// group keys, and aggregate inputs.
func liveColumns(q *Query, bindingIdx map[string]int, joined, remaining []int) map[int][]string {
	in := map[int]bool{}
	for _, idx := range joined {
		in[idx] = true
	}
	pending := map[int]bool{}
	for _, idx := range remaining {
		pending[idx] = true
	}
	live := map[int]map[string]bool{}
	add := func(binding, col string) {
		i := bindingIdx[binding]
		if !in[i] {
			return
		}
		if live[i] == nil {
			live[i] = map[string]bool{}
		}
		live[i][col] = true
	}
	for _, j := range q.Joins {
		l, r := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
		if pending[l] || pending[r] {
			add(j.LeftTab, j.LeftCol)
			add(j.RightTab, j.RightCol)
		}
	}
	for _, g := range q.GroupBy {
		add(g.Tab, g.Col)
	}
	for _, a := range q.Aggs {
		for _, c := range a.Cols {
			add(c.Tab, c.Col)
		}
	}
	out := map[int][]string{}
	//bytecard:unordered-ok keyed transform: each out[i] is built from its own cols set and sorted before use
	for i, cols := range live {
		for c := range cols {
			out[i] = append(out[i], c)
		}
		sort.Strings(out[i])
	}
	return out
}

// bindSignature binds the live columns of the tables in tabs, in tabs
// order; pos of each column is its table's position in tabs.
func bindSignature(live map[int][]string, states []*scanState, tabs []int) []wordCol {
	var sig []wordCol
	for k, tab := range tabs {
		for _, col := range live[tab] {
			r := states[tab].reader(col)
			sig = append(sig, wordCol{r: r, pos: k, codec: selfCodec(states[tab].t.Table.ColByName(col).Kind())})
		}
	}
	return sig
}

// compressThreshold skips compression for small intermediates.
const compressThreshold = 1024

// compress merges tuples that agree on every live column, summing their
// multiplicities. It runs on the first table's scan output; every later
// relation is compressed by the join step that produces it (see
// joinStep.merge). Projection queries are exempt: merging reorders tuples,
// and their output is defined by scan/join row order.
func compress(s *scratch, q *Query, bindingIdx map[string]int, inter *intermediate, states []*scanState, remaining []int) *intermediate {
	n := inter.len()
	if len(q.Select) > 0 || n < compressThreshold {
		return inter
	}
	sig := bindSignature(liveColumns(q, bindingIdx, inter.tabs, remaining), states, inter.tabs)
	if len(sig) == 0 {
		// Every tuple merges into the first, as the merge table would
		// merge them: its row ids carry the summed multiplicity.
		out := &intermediate{tabs: inter.tabs, cols: make([][]int32, len(inter.cols)), counts: []int64{inter.size()}}
		for k, col := range inter.cols {
			out.cols[k] = col[:1:1]
		}
		return out
	}
	mt := newMergeTable(s, len(sig), n/4)
	words := s.uint64s(len(sig))
	for i := 0; i < n; i++ {
		for k := range sig {
			words[k] = sig[k].word(inter.cols[sig[k].pos][i])
		}
		mt.add(hashWords(words), words, int32(i), 0, inter.counts[i])
	}
	out := &intermediate{tabs: inter.tabs, cols: make([][]int32, len(inter.cols)), counts: mt.counts}
	for k, col := range inter.cols {
		out.cols[k] = gather(s, col, mt.left)
	}
	return out
}

// gather returns col[i] for each i of idx.
func gather(s *scratch, col, idx []int32) []int32 {
	out := s.int32s(len(idx))
	for j, i := range idx {
		out[j] = col[i]
	}
	return out
}

// joinStep is one left-deep join step: the intermediate (left) against one
// newly scanned table (right). The intermediate's distinct keys are
// interned in a wordTable once; that table is the SIP set the right scan
// is pruned with, and the index the right rows are grouped by, so the step
// hashes each left tuple and each right row once and needs no second table.
type joinStep struct {
	s          *scratch
	q          *Query
	states     []*scanState
	bindingIdx map[string]int
	// inter is the left side, next the query-table index of the right.
	inter *intermediate
	next  int
	// left and right are the key columns, one pair per join condition.
	// right carries codecs only: its readers exist once the right table
	// is scanned (rightKeyCols).
	left, right []wordCol
	rightCols   []string
	// keys interns the intermediate's distinct join keys; keyOf[i] is
	// tuple i's key id.
	keys  *wordTable
	keyOf []int32
	// Right rows grouped by key id, in scan order within a group:
	// rows[start[g]:start[g+1]].
	start []int32
	rows  []int32
}

// bindJoinStep gathers the join conditions between table next and the
// intermediate's tables and resolves them against the intermediate's
// layout and the two sides' column kinds. A table no condition connects to
// the intermediate is an error. ok is false when some condition compares
// kinds no value of which can be equal: the join is empty.
func bindJoinStep(s *scratch, q *Query, inter *intermediate, states []*scanState, next int, bindingIdx map[string]int) (*joinStep, bool, error) {
	js := &joinStep{s: s, q: q, states: states, bindingIdx: bindingIdx, inter: inter, next: next}
	for _, j := range q.Joins {
		l, r := bindingIdx[j.LeftTab], bindingIdx[j.RightTab]
		if inter.pos(r) >= 0 && l == next {
			// Normalize so Left references the intermediate side.
			j = JoinCond{LeftTab: j.RightTab, LeftCol: j.RightCol, RightTab: j.LeftTab, RightCol: j.LeftCol}
			l, r = r, l
		}
		if inter.pos(l) < 0 || r != next {
			continue
		}
		lc, rc, ok := pairCodecs(q.Tables[l].Table.ColByName(j.LeftCol), q.Tables[next].Table.ColByName(j.RightCol))
		if !ok {
			return nil, false, nil
		}
		lc.r, lc.pos = states[l].reader(j.LeftCol), inter.pos(l)
		js.left = append(js.left, lc)
		js.right = append(js.right, rc)
		js.rightCols = append(js.rightCols, j.RightCol)
	}
	if len(js.left) == 0 {
		return nil, false, fmt.Errorf("engine: table %s joins nothing in the current prefix", q.Tables[next].Binding)
	}
	return js, true, nil
}

// internKeys interns every tuple's join key.
func (js *joinStep) internKeys() {
	n := js.inter.len()
	js.keys = newWordTable(js.s, len(js.left), n)
	js.keyOf = js.s.int32s(n)
	key := js.s.uint64s(len(js.left))
	for i := 0; i < n; i++ {
		for k := range js.left {
			key[k] = js.left[k].word(js.inter.cols[js.left[k].pos][i])
		}
		js.keyOf[i], _ = js.keys.insert(hashWords(key), key)
	}
}

// rightKeyCols returns the right key columns bound to readers from reader
// (the scan state's canonical readers, or a worker view's siblings).
func (js *joinStep) rightKeyCols(reader func(string) *storage.Reader) []wordCol {
	cols := make([]wordCol, len(js.right))
	for k, c := range js.right {
		c.r = reader(js.rightCols[k])
		cols[k] = c
	}
	return cols
}

// keyProbe is one worker's view of sideways information passing's
// key-membership stage: the right key columns (from rightKeyCols) and a
// key buffer of its own.
type keyProbe struct {
	js    *joinStep
	right []wordCol
	key   []uint64
}

func newKeyProbe(js *joinStep, right []wordCol) keyProbe {
	return keyProbe{js, right, js.s.uint64s(len(right))}
}

// sibling is the view of one more probe worker: siblings of the key
// columns.
func (p keyProbe) sibling() keyProbe { return newKeyProbe(p.js, siblingCols(p.right)) }

// filterRange returns the right-table rows in [lo, hi) whose key some
// tuple carries.
func (p keyProbe) filterRange(lo, hi int) []int32 {
	s, key := p.js.s, p.key
	dst := s.int32s(min(hi-lo, p.js.keys.len()))[:0]
	for i := lo; i < hi; i++ {
		for k := range p.right {
			key[k] = p.right[k].word(int32(i))
		}
		if p.js.keys.find(hashWords(key), key) >= 0 {
			dst = s.push32(dst, int32(i))
		}
	}
	return dst
}

// groupRight groups the right table's surviving rows by the key id they
// match, dropping rows whose key no tuple carries.
func (js *joinStep) groupRight() {
	st := js.states[js.next]
	right := js.rightKeyCols(st.reader)
	key := js.s.uint64s(len(right))
	ids := js.s.int32s(len(st.rows))
	js.start = js.s.int32s(js.keys.len() + 1)
	clear(js.start)
	for j, row := range st.rows {
		for k := range right {
			key[k] = right[k].word(row)
		}
		id := js.keys.find(hashWords(key), key)
		ids[j] = id
		if id >= 0 {
			js.start[id+1]++
		}
	}
	for g := 1; g < len(js.start); g++ {
		js.start[g] += js.start[g-1]
	}
	js.rows = js.s.int32s(int(js.start[len(js.start)-1]))
	fill := js.s.int32s(len(js.start) - 1)
	copy(fill, js.start)
	for j, id := range ids {
		if id >= 0 {
			js.rows[fill[id]] = st.rows[j]
			fill[id]++
		}
	}
}

// matches returns the right rows joining tuple i, in scan order.
func (js *joinStep) matches(i int) []int32 {
	g := js.keyOf[i]
	return js.rows[js.start[g]:js.start[g+1]]
}

// matchCount is the number of (tuple, right row) pairs the step joins — the
// size of the exploded join output, whether or not it is ever built.
func (js *joinStep) matchCount() int64 {
	var total int64
	for _, g := range js.keyOf {
		total += int64(js.start[g+1] - js.start[g])
	}
	return total
}

// emit builds the join output tuple by tuple, in probe order and, per
// tuple, right-row scan order.
func (js *joinStep) emit(tabs []int, total int) *intermediate {
	left, right, counts := js.s.int32s(total), js.s.int32s(total), js.s.int64s(total)
	j := 0
	for i := range js.keyOf {
		for _, r := range js.matches(i) {
			left[j], right[j], counts[j] = int32(i), r, js.inter.counts[i]
			j++
		}
	}
	return js.gather(tabs, left, right, counts)
}

// gather materializes output tuples given as (left tuple index, right row)
// pairs.
func (js *joinStep) gather(tabs []int, left, right []int32, counts []int64) *intermediate {
	out := &intermediate{tabs: tabs, cols: make([][]int32, len(tabs)), counts: counts}
	for k, col := range js.inter.cols {
		out.cols[k] = gather(js.s, col, left)
	}
	out.cols[len(tabs)-1] = right
	return out
}

// mergeView is one worker's view of the fused probe → compress: the
// signature of the joined relation's live columns (sigL over the
// intermediate, sigR over the right table) and the size hint of the merge
// tables it fills.
type mergeView struct {
	js         *joinStep
	sigL, sigR []wordCol
	hint       int
}

// sibling is the view of one more merge worker: siblings of the signature
// columns, filling one table per chunk of tupleChunk tuples.
func (v mergeView) sibling() mergeView {
	return mergeView{v.js, siblingCols(v.sigL), siblingCols(v.sigR), tupleChunk / 4}
}

// merge returns the merge table of tuples [lo, hi): their matches stream,
// in emit's order, straight into it under the signature, so the exploded
// join output is never built.
func (v mergeView) merge(lo, hi int) mergeTable {
	js, sigL, sigR := v.js, v.sigL, v.sigR
	mt := newMergeTable(js.s, len(sigL)+len(sigR), v.hint)
	sig := js.s.uint64s(len(sigL) + len(sigR))
	for i := lo; i < hi; i++ {
		rows := js.matches(i)
		if len(rows) == 0 {
			continue
		}
		hl := uint64(wordHashSeed)
		for k := range sigL {
			w := sigL[k].word(js.inter.cols[sigL[k].pos][i])
			sig[k] = w
			hl = mixWord(hl, w)
		}
		count := js.inter.counts[i]
		if len(sigR) == 0 {
			// Nothing of the right table stays observable: all of this
			// tuple's matches merge into one entry.
			mt.add(hl, sig, int32(i), rows[0], count*int64(len(rows)))
			continue
		}
		for _, r := range rows {
			h := hl
			for k := range sigR {
				w := sigR[k].word(r)
				sig[len(sigL)+k] = w
				h = mixWord(h, w)
			}
			mt.add(h, sig, int32(i), r, count)
		}
	}
	return mt
}

// probe produces the step's output relation. Aggregate queries whose join
// output reaches compressThreshold take the fused path; everything else
// (projections, small outputs) is emitted as is. remaining lists the tables
// still to be joined after this step. The fused path merges chunks of the
// intermediate's tuples into per-chunk tables across workers, each reading
// the signature columns through siblings it binds once, and absorbs them in
// chunk order — the table one pass over every tuple would build (see
// mergeTable.absorb).
func (js *joinStep) probe(remaining []int, m *Metrics, workers int) (*intermediate, error) {
	total := js.matchCount()
	if total > MaxIntermediateRows {
		return nil, fmt.Errorf("engine: join intermediate exceeds %d rows", int64(MaxIntermediateRows))
	}
	m.RowsMaterialized += total
	tabs := append(append(make([]int, 0, len(js.inter.tabs)+1), js.inter.tabs...), js.next)
	if len(js.q.Select) > 0 || total < compressThreshold {
		return js.emit(tabs, int(total)), nil
	}
	live := liveColumns(js.q, js.bindingIdx, tabs, remaining)
	sigL := bindSignature(live, js.states, js.inter.tabs)
	sigR := bindSignature(live, js.states, []int{js.next})
	mt := morsels(js.inter.len(), tupleChunk, workers, js.s.mergeLists, mergeView{js, sigL, sigR, int(total / 4)},
		mergeView.sibling, mergeView.merge, absorbInOrder)
	return js.gather(tabs, mt.left, mt.right, mt.counts), nil
}

// absorbInOrder absorbs per-chunk merge tables into the first, in chunk
// order.
func absorbInOrder(parts []mergeTable) mergeTable {
	for i := range parts[1:] {
		parts[0].absorb(&parts[1+i])
	}
	return parts[0]
}

// maxJoinSize bounds JoinSize's multiplicities, well inside int64.
const maxJoinSize = 1 << 62

// JoinSize returns the number of tuples in the join of tables along joins,
// where table i contributes only its rows rows[i]. The tables are folded in
// the order given through the executor's join pipeline, sequentially and
// without SIP or I/O accounting. It is an error when a table joins nothing
// in the prefix before it, when a condition names a table not given, when a
// step's matches pass MaxIntermediateRows, or when a step's size could pass
// 2^62 (its input size times its largest right-side group).
func JoinSize(tables []*QueryTable, rows [][]int32, joins []JoinCond) (int64, error) {
	if len(tables) == 0 {
		return 0, fmt.Errorf("engine: join of no tables")
	}
	s := getScratch()
	defer s.release()
	q := &Query{Tables: tables, Joins: joins}
	bindingIdx := make(map[string]int, len(tables))
	states := make([]*scanState, len(tables))
	order := make([]int, len(tables))
	for i, t := range tables {
		bindingIdx[t.Binding] = i
		states[i] = &scanState{t: t, rows: rows[i], readers: map[string]*storage.Reader{}}
		order[i] = i
	}
	for _, j := range joins {
		_, l := bindingIdx[j.LeftTab]
		_, r := bindingIdx[j.RightTab]
		if !l || !r {
			return 0, fmt.Errorf("engine: join condition %s names a table not joined", j)
		}
	}
	inter := compress(s, q, bindingIdx, scanIntermediate(s, 0, rows[0]), states, order[1:])
	var m Metrics
	for next := 1; next < len(tables); next++ {
		js, ok, err := bindJoinStep(s, q, inter, states, next, bindingIdx)
		if !ok {
			return 0, err
		}
		js.internKeys()
		js.groupRight()
		var widest int64
		for g := 1; g < len(js.start); g++ {
			widest = max(widest, int64(js.start[g]-js.start[g-1]))
		}
		if widest > 0 && inter.size() > maxJoinSize/widest {
			return 0, fmt.Errorf("engine: join size may exceed 2^62")
		}
		if inter, err = js.probe(order[next+1:], &m, 1); err != nil {
			return 0, err
		}
		if inter.len() == 0 {
			return 0, nil
		}
	}
	return inter.size(), nil
}
