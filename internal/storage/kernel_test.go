package storage

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bytecard/internal/expr"
	"bytecard/internal/types"
)

const p53 = int64(1) << 53

// Cell pools of the edge table: every block but the last holds one pool
// value in each column, the last block cycles through every pool value.
var (
	edgeInts = []int64{
		math.MinInt64, math.MinInt64 + 1, -p53 - 2, -p53 - 1, -p53, -p53 + 1,
		-1, 0, 1, 2, 3, p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3,
		math.MaxInt64 - 1, math.MaxInt64,
	}
	edgeFloats = []float64{
		math.Inf(-1), -math.MaxFloat64, -2.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 2, 1, 2.5, 5,
		float64(p53), math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	edgeStrings = []string{"", "apple", "b", "bb", "m", "zz"}
)

// Literal pools per column: members of the cell pools, values between and
// beyond them, and literals of the other numeric kind.
var edgeLits = map[string][]types.Datum{
	"i": func() []types.Datum {
		var out []types.Datum
		for _, v := range edgeInts {
			out = append(out, types.Int(v))
		}
		for _, f := range []float64{
			float64(p53), float64(p53 + 2), -float64(p53), float64(p53) + 4, 2.5, -0.5,
			math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			9.3e18, 0x1p63, -0x1p63, 1e19, -1e19,
		} {
			out = append(out, types.Float(f))
		}
		return out
	}(),
	"f": func() []types.Datum {
		var out []types.Datum
		for _, v := range edgeFloats {
			out = append(out, types.Float(v))
		}
		for _, f := range []float64{3, math.Nextafter(5, 6), math.Nextafter(5, 4), -0.0} {
			out = append(out, types.Float(f))
		}
		return append(out, types.Int(5), types.Int(0), types.Int(p53+1), types.Int(math.MinInt64))
	}(),
	"s": func() []types.Datum {
		var out []types.Datum
		for _, s := range append(edgeStrings, "a", "ba", "c", "zzz", "\x00") {
			out = append(out, types.Str(s))
		}
		return out
	}(),
}

var edgeTableOnce = sync.OnceValue(func() *Table {
	n := max(len(edgeInts), len(edgeFloats), len(edgeStrings))
	b := NewBuilder("edge", []ColumnSpec{
		{Name: "i", Kind: types.KindInt64},
		{Name: "f", Kind: types.KindFloat64},
		{Name: "s", Kind: types.KindString},
	})
	for row := 0; row < (n+1)*BlockSize; row++ {
		// Constant blocks walk the pools at different phases; the last
		// block cycles through them row by row.
		k := row / BlockSize
		if k == n {
			k = row
		}
		b.Append([]types.Datum{
			types.Int(edgeInts[k%len(edgeInts)]),
			types.Float(edgeFloats[(k+3)%len(edgeFloats)]),
			types.Str(edgeStrings[(k+1)%len(edgeStrings)]),
		})
	}
	return b.Build()
})

// refNode mirrors one node of a compiled filter for the reference scan:
// the predicates of a leaf (every leaf of one AND node on one column) or
// the children of an AND / OR, grouped the way Compile groups them.
type refNode struct {
	kind     expr.NodeKind
	col      string
	preds    []expr.Pred
	children []refNode
	n        *node // the compiled node, for its zone test
}

// refTree pairs e with its compiled form n.
func refTree(e *expr.Node, n *node) refNode {
	if e.Kind == expr.KindOr {
		r := refNode{kind: expr.KindOr, n: n}
		for i, c := range e.Children {
			r.children = append(r.children, refTree(c, &n.children[i]))
		}
		return r
	}
	kids := e.Children
	if e.Kind == expr.KindLeaf {
		kids = []*expr.Node{e}
	}
	var groups []refNode
	var subs []*expr.Node
	for _, c := range kids {
		if c.Kind != expr.KindLeaf {
			groups = append(groups, refNode{})
			subs = append(subs, c)
			continue
		}
		i := 0
		for i < len(groups) && (groups[i].kind != expr.KindLeaf || groups[i].col != c.Pred.Col) {
			i++
		}
		if i == len(groups) {
			groups = append(groups, refNode{kind: expr.KindLeaf, col: c.Pred.Col})
			subs = append(subs, nil)
		}
		groups[i].preds = append(groups[i].preds, c.Pred)
	}
	if len(groups) == 1 {
		if subs[0] != nil {
			return refTree(subs[0], n)
		}
		groups[0].n = n
		return groups[0]
	}
	for i := range groups {
		if subs[i] != nil {
			groups[i] = refTree(subs[i], &n.children[i])
		} else {
			groups[i].n = &n.children[i]
		}
	}
	return refNode{kind: expr.KindAnd, children: groups, n: n}
}

// scan is the row-at-a-time reference of one block: rows (ascending, all
// in block b) filtered by r, marking charged[col] for every column a
// candidate is tested on. With zoned set an OR skips the children whose
// zone test rules the block out, as BlockScan does.
func (r *refNode) scan(tab *Table, b int, rows []int, zoned bool, charged map[string]bool) []int {
	switch r.kind {
	case expr.KindLeaf:
		if len(rows) == 0 || r.n.empty {
			return nil
		}
		charged[r.col] = true
		var kept []int
		for _, row := range rows {
			ok := true
			for _, p := range r.preds {
				ok = ok && p.Eval(tab.ColByName(r.col).Value(row))
			}
			if ok {
				kept = append(kept, row)
			}
		}
		return kept
	case expr.KindAnd:
		for i := 0; i < len(r.children) && len(rows) > 0; i++ {
			rows = r.children[i].scan(tab, b, rows, zoned, charged)
		}
		return rows
	default:
		in := map[int]bool{}
		rest := rows
		for i := range r.children {
			if len(rest) == 0 {
				break
			}
			if zoned && !r.children[i].n.zone(b) {
				continue
			}
			for _, row := range r.children[i].scan(tab, b, rest, zoned, charged) {
				in[row] = true
			}
			var next []int
			for _, row := range rest {
				if !in[row] {
					next = append(next, row)
				}
			}
			rest = next
		}
		var kept []int
		for _, row := range rows {
			if in[row] {
				kept = append(kept, row)
			}
		}
		return kept
	}
}

// zoneTruth reports whether a block holding only row's values may pass r
// by the zone rule: a leaf when every predicate but <> holds, an AND when
// every child does, an OR when any does.
func (r *refNode) zoneTruth(tab *Table, row int) bool {
	switch r.kind {
	case expr.KindLeaf:
		for _, p := range r.preds {
			if p.Op != expr.OpNe && !p.Eval(tab.ColByName(r.col).Value(row)) {
				return false
			}
		}
		return true
	case expr.KindAnd:
		for i := range r.children {
			if !r.children[i].zoneTruth(tab, row) {
				return false
			}
		}
		return true
	default:
		for i := range r.children {
			if r.children[i].zoneTruth(tab, row) {
				return true
			}
		}
		return false
	}
}

// checkScan checks one filter tree on the edge table against the oracle:
// BlockScan and FilterRows must keep exactly the rows expr.Node.Eval keeps,
// and charge and skip exactly the blocks a row-at-a-time block-local
// reference would.
func checkScan(t *testing.T, filter *expr.Node) {
	t.Helper()
	tab := edgeTableOnce()
	f := Compile(tab, filter, nil)
	n := tab.NumRows()
	nb := tab.Col(0).NumBlocks()
	ref := refTree(filter, &f.root)
	eval := make([]bool, n)
	var evalRows []int32
	for row := 0; row < n; row++ {
		if b := BlockOf(row); b < nb-1 && row%BlockSize != 0 {
			eval[row] = eval[row-1] // constant block
		} else {
			eval[row] = filter.Eval(func(_, col string) types.Datum { return tab.ColByName(col).Value(row) })
		}
		if eval[row] {
			evalRows = append(evalRows, int32(row))
		}
	}
	if f.Empty() && len(evalRows) > 0 {
		t.Fatalf("%v: the filter is empty, but row %d passes", filter, evalRows[0])
	}

	// The block-local reference, with and without zone tests.
	var wantRows []int32
	wantCharged, wantSkipped := map[string]int{}, map[string]int{}
	rowsCharged := map[string]int{}
	for b := 0; b < nb; b++ {
		// A block of constant rows keeps all of them or none: the
		// reference runs its first row alone and charges the same.
		lo, hi := b*BlockSize, min((b+1)*BlockSize, n)
		if b < nb-1 {
			hi = lo + 1
		}
		var rows []int
		for row := lo; row < hi; row++ {
			rows = append(rows, row)
		}
		charged := map[string]bool{}
		ref.scan(tab, b, rows, false, charged)
		for col := range charged {
			rowsCharged[col]++
		}
		if f.Empty() {
			continue
		}
		if !f.root.zone(b) {
			for _, c := range f.cols {
				wantSkipped[c.name]++
			}
			continue
		}
		// Every block but the last holds one value in each column.
		if b < nb-1 && !ref.zoneTruth(tab, b*BlockSize) {
			t.Fatalf("%v: block %d of constant rows fails the zone rule, and is not pruned", filter, b)
		}
		charged = map[string]bool{}
		kept := ref.scan(tab, b, rows, true, charged)
		if b < nb-1 && len(kept) > 0 {
			kept = nil
			for row := lo; row < (b+1)*BlockSize; row++ {
				kept = append(kept, row)
			}
		}
		for _, row := range kept {
			wantRows = append(wantRows, int32(row))
		}
		for col := range charged {
			wantCharged[col]++
		}
	}
	if !equalRows(wantRows, evalRows) {
		t.Fatalf("%v: the reference keeps %d rows, Node.Eval %d", filter, len(wantRows), len(evalRows))
	}

	var io IOStats
	readers := make([]*Reader, len(f.cols))
	for k, c := range f.cols {
		readers[k] = c.NewReader(&io)
	}
	got := BlockScan(readers, ScanOptions{Filter: f}, 0, n, nil)
	if !equalRows(got, evalRows) {
		t.Fatalf("%v: BlockScan keeps %d rows, Node.Eval %d", filter, len(got), len(evalRows))
	}
	var charged, skipped int
	for k, r := range readers {
		name := f.cols[k].name
		if r.BlocksCharged() != wantCharged[name] || r.BlocksSkipped() != wantSkipped[name] {
			t.Fatalf("%v: column %s charged/skipped %d/%d blocks, reference %d/%d",
				filter, name, r.BlocksCharged(), r.BlocksSkipped(), wantCharged[name], wantSkipped[name])
		}
		charged += wantCharged[name]
		skipped += wantSkipped[name]
	}
	if io.BlocksRead() != int64(charged) || io.BlocksSkipped() != int64(skipped) {
		t.Fatalf("%v: IOStats %d read / %d skipped, reference %d / %d", filter, io.BlocksRead(), io.BlocksSkipped(), charged, skipped)
	}
	if s := Survivors(f, nil); len(s) != nb-skipped/max(len(f.cols), 1) && !f.Empty() {
		t.Fatalf("%v: %d surviving blocks, BlockScan pruned %d of %d", filter, len(s), skipped/len(f.cols), nb)
	}

	// FilterRows, the executor's candidate filter: every row, no zone test.
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for k, c := range f.cols {
		readers[k] = c.NewReader(nil)
	}
	if rows = FilterRows(readers, f, rows); !equalRows(rows, evalRows) {
		t.Fatalf("%v: FilterRows keeps %d rows, Node.Eval %d", filter, len(rows), len(evalRows))
	}
	for k, r := range readers {
		if name := f.cols[k].name; r.BlocksCharged() != rowsCharged[name] || r.BlocksSkipped() != 0 {
			t.Fatalf("%v: FilterRows charged/skipped %d/%d blocks of %s, reference %d/0",
				filter, r.BlocksCharged(), r.BlocksSkipped(), name, rowsCharged[name])
		}
	}
}

func equalRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	edgeOps  = []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	edgeCols = []string{"i", "f", "s"}
)

// randomTree draws a filter of at most depth levels of AND / OR over the
// edge table's three columns, with exclusive bounds and duplicated <>
// points.
func randomTree(rng *rand.Rand, depth int) *expr.Node {
	if depth == 1 || rng.Intn(3) == 0 {
		col := edgeCols[rng.Intn(len(edgeCols))]
		lits := edgeLits[col]
		p := expr.Pred{Col: col, Op: edgeOps[rng.Intn(len(edgeOps))], Val: lits[rng.Intn(len(lits))]}
		if p.Op == expr.OpNe && rng.Intn(2) == 0 {
			return expr.And(expr.Leaf(p), expr.Leaf(p))
		}
		return expr.Leaf(p)
	}
	kids := make([]*expr.Node, rng.Intn(3)+2)
	for i := range kids {
		kids[i] = randomTree(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return expr.And(kids...)
	}
	return expr.Or(kids...)
}

// TestKernelParity checks every kind's kernel against expr.Node.Eval cell
// by cell: each operator with each literal alone, then random AND / OR
// trees of depth 3 or less over the three columns.
func TestKernelParity(t *testing.T) {
	for _, col := range edgeCols {
		for _, op := range edgeOps {
			for _, lit := range edgeLits[col] {
				checkScan(t, expr.Leaf(expr.Pred{Col: col, Op: op, Val: lit}))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	trees := 600
	if testing.Short() {
		trees = 100
	}
	for c := 0; c < trees; c++ {
		checkScan(t, randomTree(rng, 3))
	}
}

// TestKernelEmptyFollowsConstraint: a kernel no cell passes lets the scan
// skip its column only when the estimators' expr.Constraint finds the same
// contradiction; otherwise the scan reads the blocks its zone test keeps
// and keeps no row.
func TestKernelEmptyFollowsConstraint(t *testing.T) {
	tab := buildTestTable(t, 3*BlockSize)
	pred := func(col string, op expr.CmpOp, v types.Datum) *expr.Node {
		return expr.Leaf(expr.Pred{Col: col, Op: op, Val: v})
	}
	for _, c := range []struct {
		filter *expr.Node
		empty  bool
		read   int
	}{
		{expr.And(pred("id", expr.OpEq, types.Int(1)), pred("id", expr.OpEq, types.Int(2))), true, 0},
		{pred("tag", expr.OpEq, types.Str("beta")), true, 0},
		{expr.And(pred("id", expr.OpEq, types.Int(5)), pred("id", expr.OpNe, types.Int(5))), true, 0},
		{expr.And(pred("id", expr.OpGt, types.Int(1)), pred("id", expr.OpLt, types.Int(2))), false, 1},
		{pred("id", expr.OpEq, types.Float(2.5)), false, 1},
		// Closed bounds that meet pin the point as = does.
		{expr.And(pred("id", expr.OpGe, types.Int(5)), pred("id", expr.OpLe, types.Int(5)), pred("id", expr.OpNe, types.Int(5))), true, 0},
		{expr.And(pred("tag", expr.OpGe, types.Str("beta")), pred("tag", expr.OpLe, types.Str("beta"))), true, 0},
		{expr.And(pred("tag", expr.OpGt, types.Str("alpha")), pred("tag", expr.OpLt, types.Str("mid"))), false, 3},
		{expr.Or(pred("tag", expr.OpEq, types.Str("beta")), pred("tag", expr.OpEq, types.Str("gamma"))), true, 0},
	} {
		f := Compile(tab, c.filter, nil)
		r := f.cols[0].NewReader(nil)
		rows := BlockScan([]*Reader{r}, ScanOptions{Filter: f}, 0, tab.NumRows(), nil)
		if f.Empty() != c.empty || len(rows) != 0 || r.BlocksCharged() != c.read {
			t.Errorf("%v: empty %v, %d rows, %d blocks read; want empty %v, no row, %d blocks", c.filter, f.Empty(), len(rows), r.BlocksCharged(), c.empty, c.read)
		}
	}
}

// fuzzTree decodes spec into a filter of at most depth levels: a byte
// below 0xF0 starts a leaf triple (column, operator, literal — drawn from
// the edge pools or, past them, the fuzzed int, float or string), a byte
// from 0xF0 up an AND (even) or OR (odd) of 2 to 5 children, read as a
// leaf at the last level. It returns nil when spec runs out.
func fuzzTree(spec []byte, depth int, iv int64, fv float64) (*expr.Node, []byte) {
	if len(spec) > 0 && spec[0] >= 0xF0 && depth > 1 {
		b := spec[0]
		spec = spec[1:]
		var kids []*expr.Node
		for i := 0; i < 2+int(b>>1)&3; i++ {
			var kid *expr.Node
			if kid, spec = fuzzTree(spec, depth-1, iv, fv); kid == nil {
				break
			}
			kids = append(kids, kid)
		}
		if b&1 == 0 {
			return expr.And(kids...), spec
		}
		return expr.Or(kids...), spec
	}
	if len(spec) < 3 {
		return nil, nil
	}
	col := edgeCols[int(spec[0])%len(edgeCols)]
	lits := edgeLits[col]
	var lit types.Datum
	switch idx := int(spec[2]); {
	case idx < len(lits):
		lit = lits[idx]
	case col == "s":
		lit = types.Str(string(spec))
	case idx%2 == 0:
		lit = types.Int(iv)
	default:
		lit = types.Float(fv)
	}
	return expr.Leaf(expr.Pred{Col: col, Op: edgeOps[int(spec[1])%len(edgeOps)], Val: lit}), spec[3:]
}

// FuzzBlockScan checks checkScan's property on filter trees the fuzzer
// spells: up to six top-level items (see fuzzTree), AND-ed, each at most
// two levels below the root.
func FuzzBlockScan(f *testing.F) {
	f.Add([]byte{0, 2, 12}, int64(p53+1), 2.5)
	f.Add([]byte{1, 1, 14, 1, 0, 3}, int64(5), math.NaN())
	f.Add([]byte{2, 4, 3, 2, 1, 3}, int64(0), math.Inf(-1))
	f.Add([]byte{0, 1, 200, 0, 1, 200, 0, 5, 201}, int64(-3), -0.0)
	f.Add([]byte{0xF1, 0, 0, 7, 2, 0, 1, 0xF0, 1, 3, 14, 0xF3, 0, 1, 200, 2, 5, 3, 1, 4, 2}, int64(p53+3), math.Inf(1))
	f.Add([]byte{0xF3, 0xF0, 0, 4, 5, 1, 3, 9, 0xF2, 2, 2, 2, 0, 5, 7, 2, 0, 201, 1, 2, 14}, int64(math.MinInt64), math.NaN())
	f.Fuzz(func(t *testing.T, spec []byte, iv int64, fv float64) {
		var items []*expr.Node
		for len(items) < 6 {
			var item *expr.Node
			if item, spec = fuzzTree(spec, 3, iv, fv); item == nil {
				break
			}
			items = append(items, item)
		}
		if len(items) > 0 {
			checkScan(t, expr.And(items...))
		}
	})
}

// TestBlockScanAllocs holds BlockScan to its contract: a caller whose dst
// has room, scanning with a compiled filter, allocates nothing — for int,
// float and code columns, with and without a <> exclusion, and under an OR.
func TestBlockScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	tab := edgeTableOnce()
	dst := make([]int32, 0, tab.NumRows())
	leaf := func(col string, op expr.CmpOp, v types.Datum) *expr.Node {
		return expr.Leaf(expr.Pred{Col: col, Op: op, Val: v})
	}
	for _, filter := range []*expr.Node{
		leaf("i", expr.OpGe, types.Int(-1)),
		expr.And(leaf("i", expr.OpGe, types.Int(-1)), leaf("i", expr.OpNe, types.Int(2))),
		leaf("f", expr.OpLt, types.Float(5)),
		expr.And(leaf("f", expr.OpLt, types.Float(5)), leaf("f", expr.OpNe, types.Float(1))),
		leaf("s", expr.OpGt, types.Str("b")),
		expr.And(leaf("s", expr.OpGt, types.Str("b")), leaf("s", expr.OpNe, types.Str("m"))),
		expr.And(leaf("i", expr.OpGe, types.Int(0)), leaf("f", expr.OpGe, types.Int(0)), leaf("s", expr.OpNe, types.Str("zz"))),
		expr.And(leaf("i", expr.OpGe, types.Int(0)), expr.Or(leaf("f", expr.OpEq, types.Int(5)), leaf("s", expr.OpEq, types.Str("bb")))),
	} {
		f := Compile(tab, filter, nil)
		var io IOStats
		readers := make([]*Reader, len(f.cols))
		for k, c := range f.cols {
			readers[k] = c.NewReader(&io)
		}
		opts := ScanOptions{Filter: f}
		var kept int
		if allocs := testing.AllocsPerRun(20, func() {
			kept = len(BlockScan(readers, opts, 0, tab.NumRows(), dst[:0]))
		}); allocs != 0 {
			t.Errorf("%v: %.0f allocs per scan", filter, allocs)
		}
		if kept == 0 {
			t.Errorf("%v: the scan kept no row", filter)
		}
	}
}
