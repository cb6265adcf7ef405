// Package storage implements the warehouse's columnar storage layer:
// dictionary-encoded typed columns split into fixed-size blocks, block-level
// read accounting (the substrate for the paper's read-I/O experiments), and
// an in-memory database of tables.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"bytecard/internal/types"
)

// BlockSize is the number of values per column block. Readers fetch whole
// blocks, so I/O accounting happens at this granularity. (Production
// column stores use granules around 8192 values; the reproduction datasets
// are orders of magnitude smaller, so a proportionally smaller block keeps
// the block-skipping behaviour observable.)
const BlockSize = 2048

// IOStats accumulates block-read counters. It is safe for concurrent use.
type IOStats struct {
	blocksRead    atomic.Int64
	blocksSkipped atomic.Int64
	bytesRead     atomic.Int64
}

// AddBlock records one block read of the given total byte size (the
// block's value count times the column's per-value width).
func (s *IOStats) AddBlock(bytes int64) {
	s.blocksRead.Add(1)
	s.bytesRead.Add(bytes)
}

// AddSkipped records n blocks pruned by their zone maps before any value
// was fetched — the reads that never happened.
func (s *IOStats) AddSkipped(n int64) { s.blocksSkipped.Add(n) }

// BlocksRead returns the number of blocks fetched.
func (s *IOStats) BlocksRead() int64 { return s.blocksRead.Load() }

// BlocksSkipped returns the number of blocks pruned by zone maps.
func (s *IOStats) BlocksSkipped() int64 { return s.blocksSkipped.Load() }

// BytesRead returns the number of bytes fetched.
func (s *IOStats) BytesRead() int64 { return s.bytesRead.Load() }

// Reset zeroes the counters.
func (s *IOStats) Reset() {
	s.blocksRead.Store(0)
	s.blocksSkipped.Store(0)
	s.bytesRead.Store(0)
}

// ColumnSpec declares one column of a table under construction.
type ColumnSpec struct {
	Name string
	Kind types.Kind
}

// Column is one materialized column. Strings are dictionary encoded; after
// Build the dictionary is sorted so code order equals lexicographic order.
type Column struct {
	name   string
	kind   types.Kind
	ints   []int64
	floats []float64
	codes  []int32
	dict   []string
	// zones are the per-block zone maps, computed at Build time.
	zones []zone
}

// zone is one block's zone map. INT64 columns keep int64 bounds, so big
// ints prune exactly; dictionary columns keep code bounds, and because the
// dictionary is sorted the code range is the string range. FLOAT64 columns
// keep bounds over the block's non-NaN cells and whether it holds a NaN,
// so a predicate NaN satisfies never prunes a block holding one.
type zone struct {
	lo, hi   int64
	flo, fhi float64
	nan      bool
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the column's database type.
func (c *Column) Kind() types.Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.kind {
	case types.KindInt64:
		return len(c.ints)
	case types.KindFloat64:
		return len(c.floats)
	default:
		return len(c.codes)
	}
}

// valueWidth is the per-value width in bytes used for byte accounting.
func (c *Column) valueWidth() int64 {
	if c.kind == types.KindInt64 || c.kind == types.KindFloat64 {
		return 8
	}
	return 4
}

// NumBlocks returns the number of storage blocks in the column.
func (c *Column) NumBlocks() int { return (c.Len() + BlockSize - 1) / BlockSize }

// BlockOf returns the block index containing row i.
func BlockOf(i int) int { return i / BlockSize }

// Value returns the datum at row i.
func (c *Column) Value(i int) types.Datum {
	switch c.kind {
	case types.KindInt64:
		return types.Int(c.ints[i])
	case types.KindFloat64:
		return types.Float(c.floats[i])
	default:
		return types.Datum{K: c.kind, S: c.dict[c.codes[i]]}
	}
}

// Numeric returns the numeric image of row i: the value itself for numeric
// kinds and the dictionary code for strings. Because dictionaries are sorted
// at build time, code order equals string order, so histograms and bin
// boundaries built on Numeric respect the column's comparison semantics.
func (c *Column) Numeric(i int) float64 {
	switch c.kind {
	case types.KindInt64:
		return float64(c.ints[i])
	case types.KindFloat64:
		return c.floats[i]
	default:
		return float64(c.codes[i])
	}
}

// NumericAll materializes the numeric image of the whole column.
func (c *Column) NumericAll() []float64 {
	out := make([]float64, c.Len())
	for i := range out {
		out[i] = c.Numeric(i)
	}
	return out
}

// EncodeDatum converts a literal to the column's numeric image: numeric
// literals pass through; string literals map to their dictionary code, with
// non-member strings mapped to the insertion point minus 0.5 so range
// predicates remain correct. The boolean reports whether an exact member was
// found (relevant for equality predicates).
func (c *Column) EncodeDatum(d types.Datum) (float64, bool) {
	if c.kind != types.KindString {
		return d.AsFloat(), true
	}
	if d.K != types.KindString {
		return d.AsFloat(), false
	}
	i := sort.SearchStrings(c.dict, d.S)
	if i < len(c.dict) && c.dict[i] == d.S {
		return float64(i), true
	}
	return float64(i) - 0.5, false
}

// DictSize returns the dictionary length (0 for non-string columns).
func (c *Column) DictSize() int { return len(c.dict) }

// MergeDicts relates the dictionary codes of two dictionary-encoded
// columns: ra[code of a] and rb[code of b] are ranks in the sorted union of
// the two dictionaries, so two rows hold the same string exactly when their
// remapped codes are equal. Dictionaries are metadata (sorted at Build
// time): the merge charges nothing and costs one pass over both.
func MergeDicts(a, b *Column) (ra, rb []int32) {
	ra = make([]int32, len(a.dict))
	rb = make([]int32, len(b.dict))
	i, j, rank := 0, 0, int32(0)
	for i < len(a.dict) || j < len(b.dict) {
		switch {
		case j == len(b.dict) || (i < len(a.dict) && a.dict[i] < b.dict[j]):
			ra[i] = rank
			i++
		case i == len(a.dict) || b.dict[j] < a.dict[i]:
			rb[j] = rank
			j++
		default:
			ra[i], rb[j] = rank, rank
			i++
			j++
		}
		rank++
	}
	return ra, rb
}

// buildZones computes the per-block zone maps. Called once from Build,
// after string dictionaries are sorted and codes remapped.
func (c *Column) buildZones() {
	c.zones = make([]zone, c.NumBlocks())
	for b := range c.zones {
		lo, hi := b*BlockSize, min((b+1)*BlockSize, c.Len())
		z := zone{lo: math.MaxInt64, hi: math.MinInt64, flo: math.Inf(1), fhi: math.Inf(-1)}
		switch c.kind {
		case types.KindInt64:
			for _, v := range c.ints[lo:hi] {
				z.lo, z.hi = min(z.lo, v), max(z.hi, v)
			}
		case types.KindFloat64:
			for _, v := range c.floats[lo:hi] {
				if math.IsNaN(v) {
					z.nan = true
					continue
				}
				z.flo, z.fhi = min(z.flo, v), max(z.fhi, v)
			}
		default:
			for _, v := range c.codes[lo:hi] {
				z.lo, z.hi = min(z.lo, int64(v)), max(z.hi, int64(v))
			}
		}
		c.zones[b] = z
	}
}

// blockCharges is the cross-reader record of which blocks of one column
// have been charged to the query's IOStats. Sibling readers (one per
// worker goroutine) share one blockCharges, so a block read by several
// workers — or by a scan worker first and a later sequential operator
// after — is still charged exactly once per query. The skipped set mirrors
// it for zone-map prunes, keeping BlocksSkipped once-per-block too.
type blockCharges struct {
	charged []atomic.Bool
	skipped []atomic.Bool
}

// charge marks block b charged, reporting whether this call was the first.
func (c *blockCharges) charge(b int) bool { return !c.charged[b].Swap(true) }

// skip marks block b skipped, reporting whether this call was the first.
func (c *blockCharges) skip(b int) bool { return !c.skipped[b].Swap(true) }

// Reader provides block-accounted access to one column within one query.
// The first touch of each block registers a block read in the IOStats; a
// nil IOStats disables accounting. A single Reader is not safe for
// concurrent use — each worker owns its readers — but Sibling readers may
// be used from different goroutines concurrently: they share the charge
// state atomically, preserving the charge-each-block-once invariant.
type Reader struct {
	col *Column
	io  *IOStats
	// loaded is this reader's private fast path: once a block is known
	// charged, later touches skip the atomic.
	loaded  []bool
	charges *blockCharges
}

// NewReader creates a reader over col accounting into io (which may be nil).
func (c *Column) NewReader(io *IOStats) *Reader {
	nb := c.NumBlocks()
	return &Reader{
		col:     c,
		io:      io,
		loaded:  make([]bool, nb),
		charges: &blockCharges{charged: make([]atomic.Bool, nb), skipped: make([]atomic.Bool, nb)},
	}
}

// Sibling returns a new reader over the same column sharing this reader's
// charge state. The sibling is handed to another goroutine; each sibling is
// used single-threaded, and the shared atomic charge set guarantees every
// block is charged to the IOStats at most once across all siblings.
func (r *Reader) Sibling() *Reader {
	return &Reader{col: r.col, io: r.io, loaded: make([]bool, r.col.NumBlocks()), charges: r.charges}
}

// touch registers the block containing row i as read.
func (r *Reader) touch(i int) {
	b := BlockOf(i)
	if !r.loaded[b] {
		r.loaded[b] = true
		if r.charges.charge(b) && r.io != nil {
			n := BlockSize
			if start := b * BlockSize; start+n > r.col.Len() {
				n = r.col.Len() - start
			}
			r.io.AddBlock(int64(n) * r.col.valueWidth())
		}
	}
}

// Numeric returns the numeric image of row i, accounting the block read.
func (r *Reader) Numeric(i int) float64 {
	r.touch(i)
	return r.col.Numeric(i)
}

// Value returns the datum at row i, accounting the block read.
func (r *Reader) Value(i int) types.Datum {
	r.touch(i)
	return r.col.Value(i)
}

// Int returns the raw value at row i of an INT64 column, accounting the
// block read. Int, Float and Code are the typed forms of Value for
// operators that work on machine words instead of datums; calling one on a
// column of another kind is a bug and panics on the nil backing slice.
func (r *Reader) Int(i int) int64 {
	r.touch(i)
	return r.col.ints[i]
}

// Float returns the raw value at row i of a FLOAT64 column, accounting the
// block read.
func (r *Reader) Float(i int) float64 {
	r.touch(i)
	return r.col.floats[i]
}

// Code returns the dictionary code at row i of a dictionary-encoded
// (string, array, map) column, accounting the block read. Codes are
// comparable only within one column; MergeDicts relates two columns' codes.
func (r *Reader) Code(i int) int32 {
	r.touch(i)
	return r.col.codes[i]
}

// LoadAll touches every block (the single-stage reader's behaviour).
func (r *Reader) LoadAll() {
	n := r.col.Len()
	for b := 0; b*BlockSize < n; b++ {
		r.touch(b * BlockSize)
	}
}

// LoadRange touches every block overlapping rows [lo, hi) — the
// single-stage behaviour restricted to one morsel.
func (r *Reader) LoadRange(lo, hi int) {
	if n := r.col.Len(); hi > n {
		hi = n
	}
	for b := BlockOf(lo); b*BlockSize < hi; b++ {
		r.touch(b * BlockSize)
	}
}

// BlocksTouched returns how many blocks this reader has loaded.
func (r *Reader) BlocksTouched() int {
	n := 0
	for _, l := range r.loaded {
		if l {
			n++
		}
	}
	return n
}

// BlocksCharged returns how many of the column's blocks have been charged
// to the IOStats across this reader and every sibling sharing its charge
// set — the per-(column, query) read count.
func (r *Reader) BlocksCharged() int {
	n := 0
	for i := range r.charges.charged {
		if r.charges.charged[i].Load() {
			n++
		}
	}
	return n
}

// BlocksSkipped returns how many blocks were zone-map pruned across this
// reader and every sibling sharing its charge set.
func (r *Reader) BlocksSkipped() int {
	n := 0
	for i := range r.charges.skipped {
		if r.charges.skipped[i].Load() {
			n++
		}
	}
	return n
}

// SkipAllBut marks every block of the column outside survivors (ascending
// block ids) zone-map pruned, and adds the blocks no sibling had marked to
// the IOStats in one step. A pruned block holds no surviving row, so later
// operators never read it — the skip and read sets of one (column, query)
// pair stay disjoint.
func (r *Reader) SkipAllBut(survivors []int32) {
	var n int64
	for b := 0; b < r.col.NumBlocks(); b++ {
		if len(survivors) > 0 && int(survivors[0]) == b {
			survivors = survivors[1:]
			continue
		}
		if r.charges.skip(b) {
			n++
		}
	}
	if n > 0 && r.io != nil {
		r.io.AddSkipped(n)
	}
}

// markSkipped records block b as zone-map pruned, charging one skip to the
// IOStats the first time any sibling marks it.
func (r *Reader) markSkipped(b int) {
	if r.charges.skip(b) && r.io != nil {
		r.io.AddSkipped(1)
	}
}

// filterRange appends to dst the row ids in [lo, hi) whose cells pass k,
// reading the column storage directly in one typed pass. The caller
// guarantees [lo, hi) lies within a single block, which is charged before
// any value is examined; dst grows once, by the block's row count, never
// per match.
func (r *Reader) filterRange(k *Kernel, lo, hi int, dst []int32) []int32 {
	if lo >= hi {
		return dst
	}
	r.touch(lo)
	if k.none {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, hi-lo)
	out := dst[n : n+hi-lo]
	switch r.col.kind {
	case types.KindInt64:
		n += selectRange(k, r.col.ints[lo:hi], int32(lo), out)
	case types.KindFloat64:
		n += selectFloatRange(k, r.col.floats[lo:hi], int32(lo), out)
	default:
		n += selectRange(k, r.col.codes[lo:hi], int32(lo), out)
	}
	return dst[:n]
}

// filterRows filters a selection vector in place against k, reading the
// column storage directly. The caller guarantees all rows lie within a
// single block, charged once up front.
func (r *Reader) filterRows(k *Kernel, rows []int32) []int32 {
	if len(rows) == 0 {
		return rows
	}
	r.touch(int(rows[0]))
	if k.none {
		return rows[:0]
	}
	var n int
	switch r.col.kind {
	case types.KindInt64:
		n = selectRows(k, r.col.ints, rows)
	case types.KindFloat64:
		n = selectFloatRows(k, r.col.floats, rows)
	default:
		n = selectRows(k, r.col.codes, rows)
	}
	return rows[:n]
}

// Filter filters rows — ids of any blocks, ascending or not — in place
// against k: the executor's one conjunctive row filter. The rows are cut
// into runs that share a block and each run is filtered by the kernel, so
// a block is charged exactly when a row lies in it. An empty kernel keeps
// nothing and charges nothing.
func (r *Reader) Filter(k *Kernel, rows []int32) []int32 {
	r.mustServe(k)
	if k.empty {
		return rows[:0]
	}
	n := 0
	for start := 0; start < len(rows); {
		b := BlockOf(int(rows[start]))
		end := start + 1
		for end < len(rows) && BlockOf(int(rows[end])) == b {
			end++
		}
		n += copy(rows[n:], r.filterRows(k, rows[start:end]))
		start = end
	}
	return rows[:n]
}

// mustServe panics unless k was compiled for r's column.
func (r *Reader) mustServe(k *Kernel) {
	if k.col != r.col {
		panic(fmt.Sprintf("storage: kernel for column %s used on a reader of %s", k.col.name, r.col.name))
	}
}

// ScanOptions is the pushed-down scan contract: the engine compiles a
// conjunctive filter into per-column kernels (at most one per column, in
// staged evaluation order) and, for limit-bearing projections, the match
// count at which the scan may stop early. Projection pushdown is implicit
// — only the constrained columns are ever handed to BlockScan, so
// unreferenced columns are simply never read.
type ScanOptions struct {
	// Kernels are evaluated in order per block: the first runs as a dense
	// range stage over the whole block, the rest refine the surviving
	// selection vector.
	Kernels []Kernel
	// Limit, when positive, stops the scan once that many rows matched.
	Limit int
}

// BlockScan is the blessed pushdown scan entry point: it evaluates opts
// over rows [lo, hi) of one table, appending matching row ids to dst.
// readers aligns with opts.Kernels (reader i serves kernel i's column).
// Per block, every kernel's zone test runs first — one miss prunes the
// block for all constrained columns without charging a read — then
// survivors are refined stage by stage, vectorized per block, in place at
// the tail of dst: the scan needs no scratch, so a caller whose dst has
// room for every row of [lo, hi) past its length allocates nothing. All
// decisions are block-local, so morsel-parallel callers scanning disjoint
// block-aligned ranges read and skip exactly the blocks the sequential
// scan would. An empty kernel reads and skips nothing.
func BlockScan(readers []*Reader, opts ScanOptions, lo, hi int, dst []int32) []int32 {
	if len(readers) == 0 || len(readers) != len(opts.Kernels) {
		panic("storage: BlockScan needs one reader per kernel")
	}
	for i := range opts.Kernels {
		readers[i].mustServe(&opts.Kernels[i])
		if opts.Kernels[i].empty {
			return dst
		}
	}
	hi = min(hi, readers[0].col.Len())
	for b := BlockOf(lo); b*BlockSize < hi; b++ {
		if !zonePasses(opts.Kernels, b) {
			for _, r := range readers {
				r.markSkipped(b)
			}
			continue
		}
		start := len(dst)
		dst = readers[0].filterRange(&opts.Kernels[0], max(b*BlockSize, lo), min((b+1)*BlockSize, hi), dst)
		for i := 1; i < len(readers) && len(dst) > start; i++ {
			dst = dst[:start+len(readers[i].filterRows(&opts.Kernels[i], dst[start:]))]
		}
		if opts.Limit > 0 && len(dst) >= opts.Limit {
			return dst[:opts.Limit]
		}
	}
	return dst
}

// Table is an immutable columnar table.
type Table struct {
	name   string
	cols   []*Column
	byName map[string]int
	n      int
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.n }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Col returns the i-th column.
func (t *Table) Col(i int) *Column { return t.cols[i] }

// ColByName returns the named column or nil.
func (t *Table) ColByName(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.cols[i]
	}
	return nil
}

// ColIndex returns the index of the named column or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.name
	}
	return out
}

// Row materializes row i across all columns (used by tests and the naive
// reference executor; the real executors work columnar).
func (t *Table) Row(i int) []types.Datum {
	out := make([]types.Datum, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}

// Gather returns a new table holding t's rows at the given ids, in that
// order: numeric columns are copied, dictionary-encoded columns copy their
// codes and share t's sorted dictionary (so EncodeDatum and MergeDicts mean
// the same on both), and zone maps are rebuilt for the new layout.
func (t *Table) Gather(rows []int32) *Table {
	out := &Table{name: t.name, cols: make([]*Column, len(t.cols)), byName: t.byName, n: len(rows)}
	for j, c := range t.cols {
		g := &Column{name: c.name, kind: c.kind, dict: c.dict}
		switch c.kind {
		case types.KindInt64:
			g.ints = make([]int64, len(rows))
			for i, r := range rows {
				g.ints[i] = c.ints[r]
			}
		case types.KindFloat64:
			g.floats = make([]float64, len(rows))
			for i, r := range rows {
				g.floats[i] = c.floats[r]
			}
		default:
			g.codes = make([]int32, len(rows))
			for i, r := range rows {
				g.codes[i] = c.codes[r]
			}
		}
		g.buildZones()
		out.cols[j] = g
	}
	return out
}

// SizeBytes approximates the table's in-memory footprint.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, c := range t.cols {
		total += int64(c.Len()) * c.valueWidth()
		for _, s := range c.dict {
			total += int64(len(s))
		}
	}
	return total
}

// Builder accumulates rows for a table.
type Builder struct {
	name    string
	specs   []ColumnSpec
	ints    [][]int64
	floats  [][]float64
	codes   [][]int32
	dicts   []map[string]int32
	dictArr [][]string
	n       int
}

// NewBuilder starts a table with the given column specs.
func NewBuilder(name string, specs []ColumnSpec) *Builder {
	b := &Builder{name: name, specs: specs}
	b.ints = make([][]int64, len(specs))
	b.floats = make([][]float64, len(specs))
	b.codes = make([][]int32, len(specs))
	b.dicts = make([]map[string]int32, len(specs))
	b.dictArr = make([][]string, len(specs))
	for i, s := range specs {
		if s.Kind != types.KindInt64 && s.Kind != types.KindFloat64 {
			b.dicts[i] = make(map[string]int32)
		}
	}
	return b
}

// Append adds one row. The datum kinds must match the specs (ints are
// accepted into float columns).
func (b *Builder) Append(row []types.Datum) {
	if len(row) != len(b.specs) {
		panic(fmt.Sprintf("storage: row width %d != %d columns", len(row), len(b.specs)))
	}
	for i, d := range row {
		switch b.specs[i].Kind {
		case types.KindInt64:
			if d.K != types.KindInt64 {
				panic(fmt.Sprintf("storage: column %s expects INT64, got %s", b.specs[i].Name, d.K))
			}
			b.ints[i] = append(b.ints[i], d.I)
		case types.KindFloat64:
			if !d.IsNumeric() {
				panic(fmt.Sprintf("storage: column %s expects FLOAT64, got %s", b.specs[i].Name, d.K))
			}
			b.floats[i] = append(b.floats[i], d.AsFloat())
		case types.KindString, types.KindArray, types.KindMap:
			if d.K != b.specs[i].Kind {
				panic(fmt.Sprintf("storage: column %s expects %s, got %s", b.specs[i].Name, b.specs[i].Kind, d.K))
			}
			code, ok := b.dicts[i][d.S]
			if !ok {
				code = int32(len(b.dictArr[i]))
				b.dicts[i][d.S] = code
				b.dictArr[i] = append(b.dictArr[i], d.S)
			}
			b.codes[i] = append(b.codes[i], code)
		default:
			panic("storage: unsupported column kind " + b.specs[i].Kind.String())
		}
	}
	b.n++
}

// Build finalizes the table: string dictionaries are sorted and codes
// remapped so code order equals lexicographic order.
func (b *Builder) Build() *Table {
	t := &Table{name: b.name, byName: make(map[string]int, len(b.specs)), n: b.n}
	for i, s := range b.specs {
		col := &Column{name: s.Name, kind: s.Kind}
		switch s.Kind {
		case types.KindInt64:
			col.ints = b.ints[i]
		case types.KindFloat64:
			col.floats = b.floats[i]
		case types.KindString, types.KindArray, types.KindMap:
			sorted := append([]string(nil), b.dictArr[i]...)
			sort.Strings(sorted)
			remap := make([]int32, len(sorted))
			newIdx := make(map[string]int32, len(sorted))
			for j, s := range sorted {
				newIdx[s] = int32(j)
			}
			for old, s := range b.dictArr[i] {
				remap[old] = newIdx[s]
			}
			codes := b.codes[i]
			for j, c := range codes {
				codes[j] = remap[c]
			}
			col.codes = codes
			col.dict = sorted
		}
		col.buildZones()
		t.byName[s.Name] = len(t.cols)
		t.cols = append(t.cols, col)
	}
	return t
}

// Database is a named collection of tables.
type Database struct {
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Add registers a table, replacing any previous table of the same name.
func (d *Database) Add(t *Table) {
	if _, ok := d.tables[t.Name()]; !ok {
		d.order = append(d.order, t.Name())
	}
	d.tables[t.Name()] = t
}

// Table returns the named table or nil.
func (d *Database) Table(name string) *Table { return d.tables[name] }

// TableNames returns table names in insertion order.
func (d *Database) TableNames() []string { return append([]string(nil), d.order...) }

// TotalRows sums row counts across tables.
func (d *Database) TotalRows() int64 {
	var n int64
	for _, name := range d.order {
		n += int64(d.tables[name].NumRows())
	}
	return n
}
