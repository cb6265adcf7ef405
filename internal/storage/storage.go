// Package storage implements the warehouse's columnar storage layer:
// dictionary-encoded typed columns split into fixed-size blocks, block-level
// read accounting (the substrate for the paper's read-I/O experiments), and
// an in-memory database of tables.
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"bytecard/internal/expr"
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

// AddSkipped records one block pruned by its zone map before any value was
// fetched — the read that never happened.
func (s *IOStats) AddSkipped() { s.blocksSkipped.Add(1) }

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
	// zoneLo/zoneHi are the per-block min/max of the numeric image,
	// computed at Build time. For strings these are dictionary codes, and
	// because the dictionary is sorted the code range is the string range.
	zoneLo []float64
	zoneHi []float64
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
	nb := c.NumBlocks()
	c.zoneLo = make([]float64, nb)
	c.zoneHi = make([]float64, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*BlockSize, (b+1)*BlockSize
		if n := c.Len(); hi > n {
			hi = n
		}
		zlo, zhi := math.Inf(1), math.Inf(-1)
		switch c.kind {
		case types.KindInt64:
			for _, v := range c.ints[lo:hi] {
				f := float64(v)
				if f < zlo {
					zlo = f
				}
				if f > zhi {
					zhi = f
				}
			}
		case types.KindFloat64:
			for _, v := range c.floats[lo:hi] {
				if v < zlo {
					zlo = v
				}
				if v > zhi {
					zhi = v
				}
			}
		default:
			for _, v := range c.codes[lo:hi] {
				f := float64(v)
				if f < zlo {
					zlo = f
				}
				if f > zhi {
					zhi = f
				}
			}
		}
		c.zoneLo[b], c.zoneHi[b] = zlo, zhi
	}
}

// ZoneRange returns block b's [min, max] numeric-image range. Zone maps
// are metadata: consulting them charges nothing to any IOStats.
func (c *Column) ZoneRange(b int) (lo, hi float64) { return c.zoneLo[b], c.zoneHi[b] }

// ZoneSurvivors counts the blocks whose zone range overlaps cons — the
// exact number of blocks a pushed-down range stage on this column would
// read, computable at plan time from metadata alone.
func (c *Column) ZoneSurvivors(cons expr.Constraint) int {
	n := 0
	for b := range c.zoneLo {
		if cons.OverlapsRange(c.zoneLo[b], c.zoneHi[b]) {
			n++
		}
	}
	return n
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

// ZoneOverlaps reports whether block b's zone range can satisfy cons.
// Metadata only: nothing is charged.
func (r *Reader) ZoneOverlaps(b int, cons expr.Constraint) bool {
	return cons.OverlapsRange(r.col.zoneLo[b], r.col.zoneHi[b])
}

// MarkSkipped records block b as zone-map pruned, charging one skip to the
// IOStats the first time any sibling marks it. A pruned block holds no
// surviving row, so later operators never read it — the skip and read sets
// of one (column, query) pair stay disjoint.
func (r *Reader) MarkSkipped(b int) {
	if r.charges.skip(b) && r.io != nil {
		r.io.AddSkipped()
	}
}

// filterRange appends to dst the row ids in [lo, hi) whose values satisfy
// cons, reading the column storage directly in one typed pass (no Datum
// boxing). The caller guarantees [lo, hi) lies within a single block,
// which is charged before any value is examined.
func (r *Reader) filterRange(lo, hi int, cons expr.Constraint, dst []int32) []int32 {
	if lo >= hi {
		return dst
	}
	r.touch(lo)
	switch r.col.kind {
	case types.KindInt64:
		for i, v := range r.col.ints[lo:hi] {
			if cons.Contains(float64(v)) {
				dst = append(dst, int32(lo+i))
			}
		}
	case types.KindFloat64:
		for i, v := range r.col.floats[lo:hi] {
			if cons.Contains(v) {
				dst = append(dst, int32(lo+i))
			}
		}
	default:
		for i, v := range r.col.codes[lo:hi] {
			if cons.Contains(float64(v)) {
				dst = append(dst, int32(lo+i))
			}
		}
	}
	return dst
}

// filterRows filters a selection vector in place against cons, reading the
// column storage directly. The caller guarantees all rows lie within a
// single block, charged once up front.
func (r *Reader) filterRows(rows []int32, cons expr.Constraint) []int32 {
	if len(rows) == 0 {
		return rows
	}
	r.touch(int(rows[0]))
	kept := rows[:0]
	switch r.col.kind {
	case types.KindInt64:
		for _, i := range rows {
			if cons.Contains(float64(r.col.ints[i])) {
				kept = append(kept, i)
			}
		}
	case types.KindFloat64:
		for _, i := range rows {
			if cons.Contains(r.col.floats[i]) {
				kept = append(kept, i)
			}
		}
	default:
		for _, i := range rows {
			if cons.Contains(float64(r.col.codes[i])) {
				kept = append(kept, i)
			}
		}
	}
	return kept
}

// ScanOptions is the pushed-down scan contract: the engine compiles a
// conjunctive filter into per-column constraints (at most one per column,
// in staged evaluation order) and, for limit-bearing projections, the
// match count at which the scan may stop early. Projection pushdown is
// implicit — only the constrained columns are ever handed to BlockScan, so
// unreferenced columns are simply never read.
type ScanOptions struct {
	// Constraints are evaluated in order per block: the first runs as a
	// dense range stage over the whole block, the rest refine the
	// surviving selection vector.
	Constraints []expr.Constraint
	// Limit, when positive, stops the scan once that many rows matched.
	Limit int
}

// BlockScan is the blessed pushdown scan entry point: it evaluates opts
// over rows [lo, hi) of one table, appending matching row ids to dst.
// readers aligns with opts.Constraints (reader i serves constraint i's
// column). Per block, every constrained column's zone map is consulted
// first — one miss prunes the block for all constrained columns without
// charging a read — then survivors are refined stage by stage, vectorized
// per block, in place at the tail of dst: the scan needs no scratch, so a
// caller that passes a dst with room allocates nothing. All decisions are
// block-local, so morsel-parallel callers scanning disjoint block-aligned
// ranges read and skip exactly the blocks the sequential scan would.
func BlockScan(readers []*Reader, opts ScanOptions, lo, hi int, dst []int32) []int32 {
	if len(readers) == 0 || len(readers) != len(opts.Constraints) {
		panic("storage: BlockScan needs one reader per constraint")
	}
	for _, cons := range opts.Constraints {
		if cons.Empty {
			return dst
		}
	}
	if n := readers[0].col.Len(); hi > n {
		hi = n
	}
	for b := BlockOf(lo); b*BlockSize < hi; b++ {
		blo, bhi := b*BlockSize, (b+1)*BlockSize
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		pruned := false
		for i := range readers {
			if !readers[i].ZoneOverlaps(b, opts.Constraints[i]) {
				pruned = true
				break
			}
		}
		if pruned {
			for _, r := range readers {
				r.MarkSkipped(b)
			}
			continue
		}
		start := len(dst)
		dst = readers[0].filterRange(blo, bhi, opts.Constraints[0], dst)
		for i := 1; i < len(readers) && len(dst) > start; i++ {
			dst = dst[:start+len(readers[i].filterRows(dst[start:], opts.Constraints[i]))]
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
