// Package sample provides the per-table sample frames the paper's Model
// Loader keeps for RBX featurization (its in-memory "DataFrame"), reservoir
// sampling of their row ids, frequency profiles, and the GEE sample-based
// NDV estimator used by the traditional baseline.
//
// A frame is an immutable, ordinary small storage.Table gathered from its
// base table at the sampled row ids, plus one dense identity code per cell
// built at load. A filter runs as a selection vector through
// storage.BlockScan, and a frequency profile is one counting pass over the
// selected rows' composite codes: nothing on the estimate path boxes a
// Datum, hashes a cell or allocates a map. An unfiltered profile is counted
// once per column set and remembered by the frame.
package sample

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"bytecard/internal/expr"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// Reservoir maintains a uniform random sample of up to capacity row ids
// using Vitter's algorithm R. It is deterministic for a given seed and
// insertion order.
type Reservoir struct {
	capacity int
	seen     int64
	rows     []int32
	rng      *rand.Rand
}

// NewReservoir creates a reservoir holding at most capacity row ids.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		panic("sample: capacity must be positive")
	}
	return &Reservoir{capacity: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Offer presents one row id to the reservoir.
func (r *Reservoir) Offer(row int32) {
	r.seen++
	if len(r.rows) < r.capacity {
		r.rows = append(r.rows, row)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.capacity) {
		r.rows[j] = row
	}
}

// Rows returns the sampled row ids in slot order. The slice is owned by
// the reservoir.
func (r *Reservoir) Rows() []int32 { return r.rows }

// Seen returns the number of row ids offered.
func (r *Reservoir) Seen() int64 { return r.seen }

// Rate returns the effective sampling rate len(rows)/seen.
func (r *Reservoir) Rate() float64 {
	if r.seen == 0 {
		return 0
	}
	return float64(len(r.rows)) / float64(r.seen)
}

// Frame is the sample table the Model Loader keeps per base table — the
// paper's "DataFrame". Its rows are immutable after construction and it is
// safe for concurrent use: every call borrows its working memory from a
// pool, and the whole-sample profile memo is filled first writer wins.
type Frame struct {
	tab *storage.Table
	// codes[j][i] is row i's identity code in column j, dense in
	// [0, card[j]) and numbered in first-occurrence order: two cells share
	// a code exactly when they hold equal values (see cellWord).
	codes [][]uint32
	card  []uint64
	pop   int64 // size of the population the sample was drawn from
	// whole maps a column set (bit j for column j) to its profile over
	// every row; wholeMu guards it.
	wholeMu sync.Mutex
	whole   map[uint64]Profile
}

// memoSets bounds the column sets whose whole-sample profile one frame
// remembers (about 850 bytes each). Past it, unfiltered profiles are
// counted on every call.
const memoSets = 256

// SampleTable draws a reservoir sample of up to capacity rows of t (offered
// in row order) and gathers it into a frame.
func SampleTable(t *storage.Table, capacity int, seed int64) *Frame {
	res := NewReservoir(capacity, seed)
	for i := 0; i < t.NumRows(); i++ {
		res.Offer(int32(i))
	}
	return newFrame(t, res.Rows(), int64(t.NumRows()))
}

// newFrame gathers base's rows at ids into a frame over a population of
// pop rows and builds the identity codes.
func newFrame(base *storage.Table, ids []int32, pop int64) *Frame {
	tab := base.Gather(ids)
	f := &Frame{tab: tab, codes: make([][]uint32, tab.NumCols()), card: make([]uint64, tab.NumCols()), pop: pop}
	byWord := map[uint64]uint32{}
	for j := range f.codes {
		col := tab.Col(j)
		r := col.NewReader(nil)
		codes := make([]uint32, tab.NumRows())
		clear(byWord)
		for i := range codes {
			w := cellWord(r, col.Kind(), i)
			c, ok := byWord[w]
			if !ok {
				c = uint32(len(byWord))
				byWord[w] = c
			}
			codes[i] = c
		}
		f.codes[j], f.card[j] = codes, uint64(len(byWord))
	}
	return f
}

// cellWord is row i's value as one word: the int64 of an int column, the
// bits (−0 folded into +0) of a float column, and the dictionary code of any
// other. Two cells of one column have equal words exactly when they hold
// the same value (a NaN is identified by its bit pattern).
func cellWord(r *storage.Reader, k types.Kind, i int) uint64 {
	switch k {
	case types.KindInt64:
		return uint64(r.Int(i))
	case types.KindFloat64:
		if f := r.Float(i); f != 0 {
			return math.Float64bits(f)
		}
		return 0
	default:
		return uint64(r.Code(i))
	}
}

// Len returns the number of sample rows.
func (f *Frame) Len() int { return f.tab.NumRows() }

// PopSize returns the population size the sample represents.
func (f *Frame) PopSize() int64 { return f.pop }

// Table returns the sample rows as a table (columns and dictionaries of
// the base table).
func (f *Frame) Table() *storage.Table { return f.tab }

// Select appends to dst[:0] the ids of the frame rows satisfying filter, in
// ascending order; a nil filter selects every row. The filter, of any AND /
// OR shape, compiles once and runs through storage.BlockScan. A leaf on a
// column the frame lacks is an error.
func (f *Frame) Select(filter *expr.Node, dst []int32) ([]int32, error) {
	dst = dst[:0]
	if filter == nil {
		for i := 0; i < f.Len(); i++ {
			dst = append(dst, int32(i))
		}
		return dst, nil
	}
	if err := f.known(filter); err != nil {
		return dst, err
	}
	fl := storage.Compile(f.tab, filter, nil)
	readers := make([]*storage.Reader, len(fl.Columns()))
	for i, c := range fl.Columns() {
		readers[i] = c.NewReader(nil)
	}
	return storage.BlockScan(readers, storage.ScanOptions{Filter: fl}, 0, f.Len(), dst), nil
}

// known returns an error naming the first leaf of n on a column the frame
// lacks.
func (f *Frame) known(n *expr.Node) error {
	if n.Kind == expr.KindLeaf {
		if f.tab.ColByName(n.Pred.Col) == nil {
			return fmt.Errorf("sample: unknown column %s", n.Pred.Col)
		}
		return nil
	}
	for _, c := range n.Children {
		if err := f.known(c); err != nil {
			return err
		}
	}
	return nil
}

// Profile is a frequency profile: Freq[j-1] counts the distinct (composite)
// values that appear exactly j times in the sample, with the final entry
// accumulating everything at or above the cap. It is the key feature of the
// RBX NDV estimator.
type Profile struct {
	// Freq has ProfileLen entries: exact counts for multiplicities
	// 1..ProfileLen-1 and a tail bucket.
	Freq []float64
	// SampleRows is the number of rows profiled.
	SampleRows float64
	// SampleNDV is the number of distinct values in the sample.
	SampleNDV float64
	// PopRows is the population row count the sample represents.
	PopRows float64
}

// ProfileLen is the length of the frequency-profile vector (multiplicities
// 1..99 plus a 100+ tail).
const ProfileLen = 100

// ProfileOf computes the frequency profile of the composite key formed by
// cols over the frame rows satisfying filter (nil: every row). PopRows is
// the population scaled by the surviving fraction; SampleRows is 0 when no
// row survives. The returned Freq is the caller's own.
//
// An unfiltered profile depends only on the set of columns: the composite
// key partitions the rows the same way in any column order and with
// duplicates dropped, and a profile counts only the parts' sizes. So a
// frame of at most 64 columns counts each such set once and answers from
// the stored profile afterwards.
func (f *Frame) ProfileOf(filter *expr.Node, cols ...string) (Profile, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	idx := sc.cols[:0]
	var set uint64
	for _, c := range cols {
		j := f.tab.ColIndex(c)
		if j < 0 {
			return Profile{}, fmt.Errorf("sample: unknown column %s", c)
		}
		idx = append(idx, j)
		set |= 1 << j
	}
	sc.cols = idx
	memo := filter == nil && len(f.codes) <= 64
	if memo {
		f.wholeMu.Lock()
		p, ok := f.whole[set]
		f.wholeMu.Unlock()
		if ok {
			return p.clone(), nil
		}
	}
	var err error
	if sc.sel, err = f.Select(filter, sc.sel); err != nil {
		return Profile{}, err
	}
	pop := f.pop
	if f.Len() > 0 {
		pop = int64(math.Round(float64(f.pop) * float64(len(sc.sel)) / float64(f.Len())))
	}
	p := ProfileFromCounts(f.count(sc.sel, idx, sc), len(sc.sel), pop)
	if memo {
		f.remember(set, p)
	}
	return p, nil
}

// remember stores a copy of p as the whole-sample profile of set unless
// the frame already holds one (first writer wins) or holds memoSets.
func (f *Frame) remember(set uint64, p Profile) {
	f.wholeMu.Lock()
	defer f.wholeMu.Unlock()
	if _, ok := f.whole[set]; ok || len(f.whole) >= memoSets {
		return
	}
	if f.whole == nil {
		f.whole = map[uint64]Profile{}
	}
	f.whole[set] = p.clone()
}

// clone returns p with its own copy of Freq.
func (p Profile) clone() Profile {
	p.Freq = slices.Clone(p.Freq)
	return p
}

// ProfileFromCounts builds the profile of a sample of rows rows over a
// population of pop, given each distinct value's multiplicity; zero
// multiplicities (values absent from the sample) are skipped.
func ProfileFromCounts(counts []int, rows int, pop int64) Profile {
	p := Profile{
		Freq:       make([]float64, ProfileLen),
		SampleRows: float64(rows),
		PopRows:    float64(pop),
	}
	for _, c := range counts {
		switch {
		case c <= 0:
			continue
		case c >= ProfileLen:
			p.Freq[ProfileLen-1]++
		default:
			p.Freq[c-1]++
		}
		p.SampleNDV++
	}
	return p
}

// ProfileOfValues computes a frequency profile directly from a value slice
// (values are equal when their Hash64 is).
func ProfileOfValues(values []types.Datum, popRows int64) Profile {
	ids := make(map[uint64]int, len(values))
	var counts []int
	for _, v := range values {
		h := v.Hash64()
		id, ok := ids[h]
		if !ok {
			id = len(counts)
			ids[h] = id
			counts = append(counts, 0)
		}
		counts[id]++
	}
	return ProfileFromCounts(counts, len(values), popRows)
}

// GEE returns the Guaranteed-Error Estimator of the population NDV from the
// profile: sqrt(N/n)*f1 + sum_{j>=2} fj. It is the sample-based baseline's
// NDV estimator and is known to break down under skew — the behaviour
// Table 1 documents.
func (p Profile) GEE() float64 {
	if p.SampleRows == 0 {
		return 0
	}
	scale := math.Sqrt(p.PopRows / p.SampleRows)
	est := scale * p.Freq[0]
	for j := 1; j < len(p.Freq); j++ {
		est += p.Freq[j]
	}
	if est < p.SampleNDV {
		est = p.SampleNDV
	}
	if p.PopRows > 0 && est > p.PopRows {
		est = p.PopRows
	}
	return est
}

// flatSlots bounds the composite-code space counted through a flat table;
// wider spaces go through the open-addressing table.
const flatSlots = 1 << 16

// count returns the multiplicity of every distinct composite code of the
// columns idx over the rows sel (scratch owned by sc). The per-column codes
// are combined mixed-radix; a code space that would overflow 64 bits is
// first re-coded densely over the rows at hand.
func (f *Frame) count(sel []int32, idx []int, sc *scratch) []int {
	if len(sel) == 0 {
		return nil
	}
	keys := grow(&sc.keys, len(sel))
	clear(keys)
	radix := uint64(1)
	for _, j := range idx {
		codes, card := f.codes[j], f.card[j]
		if radix > math.MaxUint64/card {
			radix = uint64(len(sc.dense(keys, radix)))
		}
		for i, r := range sel {
			keys[i] = keys[i]*card + uint64(codes[r])
		}
		radix *= card
	}
	return sc.dense(keys, radix)
}

// scratch is one call's working memory. Its slices only grow, and flat is
// all zero between uses.
type scratch struct {
	sel    []int32
	cols   []int
	keys   []uint64
	counts []int
	flat   []int32 // key → id+1, for code spaces up to flatSlots
	slots  []int32 // open addressing: id+1, 0 = empty
	owners []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
// A reallocated buffer is zero.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// dense replaces every key (each below radix) by a dense id numbered in
// first-appearance order and returns each id's multiplicity.
func (sc *scratch) dense(keys []uint64, radix uint64) []int {
	counts, owners := sc.counts[:0], sc.owners[:0]
	if radix <= flatSlots {
		flat := grow(&sc.flat, int(radix))
		for i, k := range keys {
			id := flat[k]
			if id == 0 {
				owners = append(owners, k)
				counts = append(counts, 0)
				id = int32(len(counts))
				flat[k] = id
			}
			counts[id-1]++
			keys[i] = uint64(id - 1)
		}
		for _, k := range owners {
			flat[k] = 0
		}
		sc.counts, sc.owners = counts, owners
		return counts
	}
	shift := 64 - bits.Len(uint(2*len(keys)-1))
	slots := grow(&sc.slots, 1<<(64-shift))
	clear(slots)
	mask := uint64(len(slots) - 1)
	for i, k := range keys {
		h := (k * 0x9e3779b97f4a7c15) >> shift
		for slots[h] != 0 && owners[slots[h]-1] != k {
			h = (h + 1) & mask
		}
		if slots[h] == 0 {
			owners = append(owners, k)
			counts = append(counts, 0)
			slots[h] = int32(len(counts))
		}
		counts[slots[h]-1]++
		keys[i] = uint64(slots[h] - 1)
	}
	sc.counts, sc.owners = counts, owners
	return counts
}
