// Query working memory. Every hash table and every row, count and key
// vector the executor builds for one query is drawn from one scratch: the
// join step's intern table and CSR arrays, compress and per-chunk merge
// tables, group tables and COUNT DISTINCT accumulators, selection vectors,
// gathered intermediates. The query (ExecuteTraced, JoinSize) takes a
// scratch from scratchPool when it starts and releases it when it ends,
// error returns included; the next query reuses the vectors and tables
// instead of allocating them again.
//
// Rules every draw follows:
//   - A vector is handed out as is: its contents are whatever the last query
//     left (test builds poison them), so every site overwrites or clears it.
//   - A table's slot array is all-zero over its full capacity whenever it
//     is free. Releasing a table zeroes only the slots its entries occupy
//     (it has their hashes), so reuse needs no clearing pass over empty
//     slots.
//   - Nothing a query returns aliases scratch memory: results are Datums
//     and counts read out before the release.
package engine

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// scratchRetainBytes bounds the vector bytes one scratch may own and still
// go back to the pool. A vector larger than this is allocated exactly and
// never retained, and a scratch that has come to own more is dropped at
// release, so one huge query cannot pin memory between queries.
const scratchRetainBytes = 8 << 20

// minVecClass is the smallest capacity class: vectors hold at least 16
// elements.
const minVecClass = 4

// scratchPool holds released scratches. Engines and JoinSize share it:
// working memory is per query, not per engine.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// poisonReleased makes release fill every released vector with a sentinel
// and check that every released slot array is all-zero. Test builds turn
// it on, so a site that reads a vector it did not write, or memory that
// outlived its query, shows up as a wrong answer or a panic.
var poisonReleased bool

// scratch is one query's working memory. Workers draw from it
// concurrently; draws take mu.
type scratch struct {
	mu  sync.Mutex
	i32 shelf[int32]
	i64 shelf[int64]
	u64 shelf[uint64]
	// slots holds free word-table slot arrays, each all-zero.
	slots shelf[int32]
	// tables lists the word tables drawn since the last release; spare
	// holds released table headers for reuse.
	tables, spare []*wordTable
	// rowParts and mergeParts hold the dispatchers' chunk-indexed output
	// lists (see morsels).
	rowParts   partLists[[]int32]
	mergeParts partLists[mergeTable]
	// held is the bytes of every vector the scratch owns.
	held int
	// doublings counts word-table doublings since the last release.
	doublings int
}

// elem is the element type of a scratch vector.
type elem interface{ int32 | int64 | uint64 }

// shelf keeps vectors of one element type by capacity class (class c holds
// capacity 1<<c) and lists the vectors lent since the last release.
type shelf[T elem] struct {
	free [bits.UintSize][][]T
	lent [][]T
}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// vecClass is the capacity class holding n elements.
func vecClass(n int) int {
	if n <= 1<<minVecClass {
		return minVecClass
	}
	return bits.Len(uint(n - 1))
}

// vecBytes is the size of a vector of n elements of T.
func vecBytes[T elem](n int) int {
	var z T
	return n * int(unsafe.Sizeof(z))
}

// draw returns a vector of n elements from sh, contents undefined. The
// caller holds s.mu. lend records the vector for the next release (slot
// arrays go back through their tables instead).
func draw[T elem](s *scratch, sh *shelf[T], n int, lend bool) []T {
	c := vecClass(n)
	size := vecBytes[T](1 << c)
	if size > scratchRetainBytes {
		return make([]T, n)
	}
	var v []T
	if f := sh.free[c]; len(f) > 0 {
		v = f[len(f)-1]
		f[len(f)-1] = nil
		sh.free[c] = f[:len(f)-1]
	} else {
		v = make([]T, 1<<c)
		s.held += size
	}
	if lend {
		sh.lent = append(sh.lent, v)
	}
	return v[:n]
}

// pooled reports whether v came from a shelf: vectors larger than
// scratchRetainBytes are drawn unpooled and dropped when returned.
func pooled[T elem](v []T) bool {
	return cap(v) == 1<<vecClass(cap(v)) && vecBytes[T](cap(v)) <= scratchRetainBytes
}

// shelve puts v back on its class's free list, if it came from one.
func shelve[T elem](sh *shelf[T], v []T) {
	if pooled(v) {
		c := vecClass(cap(v))
		sh.free[c] = append(sh.free[c], v[:0])
	}
}

// returnLent shelves every vector lent since the last release, filling it
// with poison first in test builds.
func returnLent[T elem](sh *shelf[T], poison T) {
	for i, v := range sh.lent {
		if poisonReleased {
			v = v[:cap(v)]
			for j := range v {
				v[j] = poison
			}
		}
		shelve(sh, v)
		sh.lent[i] = nil
	}
	sh.lent = sh.lent[:0]
}

func (s *scratch) int32s(n int) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return draw(s, &s.i32, n, true)
}

func (s *scratch) int64s(n int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return draw(s, &s.i64, n, true)
}

func (s *scratch) uint64s(n int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return draw(s, &s.u64, n, true)
}

// regrow returns v with room for extra more elements: v itself when it
// has the room, otherwise v's elements copied into a vector of at least
// twice v's capacity drawn from sh. The caller holds no lock.
func regrow[T elem](s *scratch, sh *shelf[T], v []T, extra int) []T {
	if cap(v)-len(v) >= extra {
		return v
	}
	s.mu.Lock()
	w := draw(s, sh, max(2*cap(v), len(v)+extra), true)
	s.mu.Unlock()
	return w[:copy(w, v)]
}

// push32 appends x to v, regrowing from the scratch when v is full.
func (s *scratch) push32(v []int32, x int32) []int32 {
	if len(v) == cap(v) {
		v = regrow(s, &s.i32, v, 1)
	}
	return append(v, x)
}

// push64 appends x to v, regrowing from the scratch when v is full.
func (s *scratch) push64(v []int64, x int64) []int64 {
	if len(v) == cap(v) {
		v = regrow(s, &s.i64, v, 1)
	}
	return append(v, x)
}

// partLists keeps a dispatcher's chunk-indexed output lists of one part
// type: the free ones, and those lent since the last release. A list holds
// one small header per chunk, so its bytes are not counted in held.
type partLists[P any] struct {
	free, lent [][]P
}

// lendParts returns a list of n zero parts from pl.
func lendParts[P any](s *scratch, pl *partLists[P], n int) []P {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v []P
	if k := len(pl.free); k > 0 {
		v = pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
	}
	if cap(v) < n {
		v = make([]P, n)
	}
	pl.lent = append(pl.lent, v)
	return v[:n]
}

// reclaim zeroes every list lent since the last release, dropping its
// references to scratch memory, and frees it for reuse.
func (pl *partLists[P]) reclaim() {
	for i, v := range pl.lent {
		clear(v[:cap(v)])
		pl.free = append(pl.free, v[:0])
		pl.lent[i] = nil
	}
	pl.lent = pl.lent[:0]
}

func (s *scratch) rowLists(n int) [][]int32      { return lendParts(s, &s.rowParts, n) }
func (s *scratch) mergeLists(n int) []mergeTable { return lendParts(s, &s.mergeParts, n) }

// table returns an empty word table of slots slots (a power of two) that
// doubles once an insert finds it holding load × slots keys.
func (s *scratch) table(width, slots int, load float64) *wordTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t *wordTable
	if n := len(s.spare); n > 0 {
		t = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		t = new(wordTable)
	}
	*t = wordTable{
		s: s, width: width, load: load, limit: int(load * float64(slots)),
		slots:  draw(s, &s.slots, slots, false),
		hashes: draw(s, &s.u64, 0, true),
		words:  draw(s, &s.u64, 0, true),
	}
	s.tables = append(s.tables, t)
	return t
}

// swapSlots returns an all-zero slot array of n slots and takes back old,
// which it zeroes: the table growing from old is at its load limit, so
// old's occupied slots are a fixed share of it.
func (s *scratch) swapSlots(old []int32, n int) []int32 {
	if pooled(old) {
		clear(old)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doublings++
	shelve(&s.slots, old)
	return draw(s, &s.slots, n, false)
}

// release ends the query the scratch served, once its workers have
// finished: every table's occupied slots are zeroed and its slot array
// shelved, every lent vector goes back to its free list, and the scratch
// returns to scratchPool unless it has come to own more than
// scratchRetainBytes. Nothing drawn may be used after.
func (s *scratch) release() {
	for i, t := range s.tables {
		if pooled(t.slots) {
			t.clearSlots()
			if poisonReleased && slices.ContainsFunc(t.slots, func(v int32) bool { return v != 0 }) {
				panic("engine: a released slot array is not all-zero")
			}
			shelve(&s.slots, t.slots)
		}
		*t = wordTable{}
		s.spare = append(s.spare, t)
		s.tables[i] = nil
	}
	s.tables = s.tables[:0]
	s.rowParts.reclaim()
	s.mergeParts.reclaim()
	returnLent(&s.i32, ^int32(0x21524110))
	returnLent(&s.i64, ^int64(0x21524110))
	returnLent(&s.u64, ^uint64(0x21524110))
	s.doublings = 0
	if s.held <= scratchRetainBytes {
		scratchPool.Put(s)
	}
}
