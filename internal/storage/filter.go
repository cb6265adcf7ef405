package storage

import (
	"fmt"
	"math/bits"
	"slices"

	"bytecard/internal/expr"
)

// Filter is an expr.Node tree compiled for the scans of one table: a tree
// whose leaves are Kernels. Every leaf of one AND node on one column merges
// into a single kernel, placed where the column's first leaf stood, so a
// pure conjunction compiles to one kernel per constrained column — the
// staged form the pushed-down scan has always run. Readers align with
// Columns: reader i serves column i.
//
// Evaluation keeps every row decision local to one block:
//   - AND narrows a selection vector child by child, in place;
//   - OR runs each child over the rows no earlier child kept and returns
//     the union in ascending row order;
//   - a block's zone maps pass an AND when they pass every child and an OR
//     when they pass any child.
//
// A node is empty when no row can pass and the estimators' constraints
// agree (see Kernel): an empty leaf, an AND with an empty child, or an OR
// whose children are all empty.
type Filter struct {
	cols []*Column
	root node
}

// node is one node of a compiled filter: a leaf (one kernel, read through
// reader col) or an AND / OR over children.
type node struct {
	kind     expr.NodeKind
	k        Kernel
	col      int
	children []node
	empty    bool
}

// Compile compiles filter over t. When order is non-empty and filter is a
// pure conjunction, the conjunction's columns run in order (columns that
// order omits run last, in order of first appearance); otherwise every AND
// node keeps its children's order. Every leaf must name a column of t. A
// nil filter compiles to nil.
func Compile(t *Table, filter *expr.Node, order []string) *Filter {
	if filter == nil {
		return nil
	}
	f := &Filter{root: compileNode(t, filter)}
	if len(order) > 0 && f.root.kind == expr.KindAnd && f.root.leaves() {
		rank := func(n *node) int {
			if i := slices.Index(order, n.k.col.name); i >= 0 {
				return i
			}
			return len(order)
		}
		slices.SortStableFunc(f.root.children, func(a, b node) int { return rank(&a) - rank(&b) })
	}
	f.index(&f.root)
	return f
}

// compileNode compiles one tree node. A leaf or AND node groups its leaves
// by column (see compileAnd).
func compileNode(t *Table, n *expr.Node) node {
	switch n.Kind {
	case expr.KindLeaf:
		return compileAnd(t, []*expr.Node{n})
	case expr.KindAnd:
		return compileAnd(t, n.Children)
	case expr.KindOr:
		out := node{kind: expr.KindOr, children: make([]node, len(n.Children)), empty: true}
		for i, c := range n.Children {
			out.children[i] = compileNode(t, c)
			out.empty = out.empty && out.children[i].empty
		}
		return out
	default:
		panic("storage: unknown filter node kind")
	}
}

// compileAnd compiles the conjunction of children: the leaves on one
// column merge into one kernel at the column's first leaf, every other
// child compiles in place. A conjunction of one child is that child.
func compileAnd(t *Table, children []*expr.Node) node {
	out := node{kind: expr.KindAnd, children: make([]node, 0, len(children))}
	var cons []expr.Constraint // the estimators' view of each leaf, for emptiness only
	for _, c := range children {
		if c.Kind != expr.KindLeaf {
			out.children = append(out.children, compileNode(t, c))
			cons = append(cons, expr.Constraint{})
			continue
		}
		p := c.Pred
		col := t.ColByName(p.Col)
		if col == nil {
			panic(fmt.Sprintf("storage: table %s has no column %s", t.name, p.Col))
		}
		i := 0
		for i < len(out.children) && (out.children[i].kind != expr.KindLeaf || out.children[i].k.col != col) {
			i++
		}
		if i == len(out.children) {
			out.children = append(out.children, node{kind: expr.KindLeaf, k: col.newKernel()})
			cons = append(cons, expr.NewConstraint(p.Col))
		}
		out.children[i].k.add(p.Op, p.Val)
		v, exact := col.EncodeDatum(p.Val)
		cons[i].Add(p.Op, v, exact)
	}
	for i := range out.children {
		c := &out.children[i]
		if c.kind == expr.KindLeaf {
			c.k.settle(cons[i].Empty)
			c.empty = c.k.empty
		}
		out.empty = out.empty || c.empty
	}
	if len(out.children) == 1 {
		return out.children[0]
	}
	return out
}

// leaves reports whether every child of n is a leaf.
func (n *node) leaves() bool {
	for i := range n.children {
		if n.children[i].kind != expr.KindLeaf {
			return false
		}
	}
	return true
}

// index numbers the filter's columns in evaluation order and points every
// leaf at its column's reader.
func (f *Filter) index(n *node) {
	if n.kind != expr.KindLeaf {
		for i := range n.children {
			f.index(&n.children[i])
		}
		return
	}
	n.col = slices.Index(f.cols, n.k.col)
	if n.col < 0 {
		n.col = len(f.cols)
		f.cols = append(f.cols, n.k.col)
	}
}

// Columns returns the constrained columns in evaluation order: the
// columns the readers handed to BlockScan and FilterRows serve, in order.
func (f *Filter) Columns() []*Column { return f.cols }

// Empty reports whether no row passes and the scan may skip the table
// outright: BlockScan and Survivors then read and skip nothing.
func (f *Filter) Empty() bool { return f.root.empty }

// mustServe panics unless readers align with f's columns.
func (f *Filter) mustServe(readers []*Reader) {
	if len(readers) != len(f.cols) {
		panic("storage: a filter needs one reader per column")
	}
	for i, r := range readers {
		if r.col != f.cols[i] {
			panic(fmt.Sprintf("storage: reader of %s used for column %s", r.col.name, f.cols[i].name))
		}
	}
}

// zone reports whether block b's zone maps leave room for a row n passes.
// Metadata only: nothing is charged.
func (n *node) zone(b int) bool {
	switch {
	case n.empty:
		return false
	case n.kind == expr.KindLeaf:
		return n.k.passesZone(b)
	case n.kind == expr.KindAnd:
		for i := range n.children {
			if !n.children[i].zone(b) {
				return false
			}
		}
		return true
	default:
		for i := range n.children {
			if n.children[i].zone(b) {
				return true
			}
		}
		return false
	}
}

// scanRange appends to dst the rows of [lo, hi), within one block whose
// zone maps pass n, that n keeps. dst grows by at most hi-lo, once.
func (n *node) scanRange(readers []*Reader, lo, hi int, dst []int32) []int32 {
	switch n.kind {
	case expr.KindLeaf:
		return readers[n.col].filterRange(&n.k, lo, hi, dst)
	case expr.KindAnd:
		start := len(dst)
		dst = n.children[0].scanRange(readers, lo, hi, dst)
		for i := 1; i < len(n.children) && len(dst) > start; i++ {
			dst = dst[:start+len(n.children[i].keep(readers, dst[start:], true))]
		}
		return dst
	default:
		start := len(dst)
		dst = slices.Grow(dst, hi-lo)[:start+hi-lo]
		for i := range hi - lo {
			dst[start+i] = int32(lo + i)
		}
		return dst[:start+len(n.keepAny(readers, dst[start:], true))]
	}
}

// keep filters rows — distinct ids within one block — in place, keeping
// the rows n passes. An empty leaf keeps nothing and charges nothing. With
// zoned set, an OR skips the children whose zone maps rule the block out
// (BlockScan's block-local decisions); without it every child is read, as
// a row-at-a-time evaluation would.
func (n *node) keep(readers []*Reader, rows []int32, zoned bool) []int32 {
	switch n.kind {
	case expr.KindLeaf:
		if n.k.empty {
			return rows[:0]
		}
		return readers[n.col].filterRows(&n.k, rows)
	case expr.KindAnd:
		for i := 0; i < len(n.children) && len(rows) > 0; i++ {
			rows = n.children[i].keep(readers, rows, zoned)
		}
		return rows
	default:
		return n.keepAny(readers, rows, zoned)
	}
}

// blockBits is a set of rows of one block.
type blockBits [BlockSize / 64]uint64

func (s *blockBits) add(base int32, rows []int32) {
	for _, r := range rows {
		r -= base
		s[r>>6] |= 1 << (r & 63)
	}
}

// appendRows appends the rows of s, ascending, to dst.
func (s *blockBits) appendRows(base int32, dst []int32) []int32 {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, base+int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// keepAny is keep for an OR node: each child filters, in place, the rows
// no earlier child kept, and the kept rows come back ascending. It needs
// no scratch beyond two block bitmaps on the stack: a child's in-place
// filter overwrites rows, so the rows still open are rebuilt from the
// bitmaps before the next child runs.
func (n *node) keepAny(readers []*Reader, rows []int32, zoned bool) []int32 {
	if len(rows) == 0 {
		return rows
	}
	b := BlockOf(int(rows[0]))
	base := int32(b * BlockSize)
	var open, kept blockBits
	open.add(base, rows)
	left, rest, stale := len(rows), rows, false
	for i := range n.children {
		c := &n.children[i]
		if zoned && !c.zone(b) {
			continue
		}
		if stale {
			for w := range open {
				open[w] &^= kept[w]
			}
			rest = open.appendRows(base, rows[:0])
		}
		got := c.keep(readers, rest, zoned)
		kept.add(base, got)
		if left -= len(got); left == 0 {
			break
		}
		stale = true
	}
	return kept.appendRows(base, rows[:0])
}

// Survivors appends to dst, in ascending order, the blocks whose zone maps
// leave room for a row f passes — the blocks a pushed-down scan reads. It
// appends nothing when f is empty. Metadata only: nothing is charged to
// any IOStats.
func Survivors(f *Filter, dst []int32) []int32 {
	if f.root.empty {
		return dst
	}
	for b := 0; b < f.cols[0].NumBlocks(); b++ {
		if f.root.zone(b) {
			dst = append(dst, int32(b))
		}
	}
	return dst
}

// ScanOptions is the pushed-down scan contract: a compiled filter and,
// for limit-bearing projections, the match count at which the scan may
// stop early. Projection pushdown is implicit — only the filter's columns
// are ever handed to BlockScan, so unreferenced columns are never read.
type ScanOptions struct {
	Filter *Filter
	// Limit, when positive, stops the scan once that many rows matched.
	Limit int
}

// BlockScan is the blessed pushdown scan entry point: it evaluates opts
// over rows [lo, hi) of one table, appending matching row ids to dst.
// readers align with opts.Filter.Columns(). Per block, the filter's zone
// test runs first — a miss prunes the block for every column without
// charging a read — then the block's rows run through the filter tree,
// vectorized per block, in place at the tail of dst: a caller whose dst
// has room for every row of [lo, hi) past its length allocates nothing.
// For a conjunction that is a dense range stage over the block's first
// column and in-place refinement by the rest. All decisions are
// block-local, so morsel-parallel callers scanning disjoint block-aligned
// ranges read and skip exactly the blocks the sequential scan would. An
// empty filter reads and skips nothing.
func BlockScan(readers []*Reader, opts ScanOptions, lo, hi int, dst []int32) []int32 {
	f := opts.Filter
	f.mustServe(readers)
	if f.root.empty {
		return dst
	}
	hi = min(hi, readers[0].col.Len())
	for b := BlockOf(lo); b*BlockSize < hi; b++ {
		if !f.root.zone(b) {
			for _, r := range readers {
				r.markSkipped(b)
			}
			continue
		}
		dst = f.root.scanRange(readers, max(b*BlockSize, lo), min((b+1)*BlockSize, hi), dst)
		if opts.Limit > 0 && len(dst) >= opts.Limit {
			return dst[:opts.Limit]
		}
	}
	return dst
}

// FilterRows filters rows — distinct ids of any blocks, in any order — in
// place against f: the executor's row filter for candidate lists. The rows
// are cut into runs that share a block and each run goes through the
// filter tree, so a column's block is charged exactly when a row of it is
// tested; zone maps are not consulted. A conjunction keeps each run's
// order; an OR returns each run's rows ascending.
func FilterRows(readers []*Reader, f *Filter, rows []int32) []int32 {
	f.mustServe(readers)
	n := 0
	for start := 0; start < len(rows); {
		b := BlockOf(int(rows[start]))
		end := start + 1
		for end < len(rows) && BlockOf(int(rows[end])) == b {
			end++
		}
		n += copy(rows[n:], f.root.keep(readers, rows[start:end], false))
		start = end
	}
	return rows[:n]
}
