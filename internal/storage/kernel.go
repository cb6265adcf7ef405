package storage

import (
	"math"
	"sort"

	"bytecard/internal/expr"
	"bytecard/internal/types"
)

// Kernel is every conjunctive predicate on one column compiled for one
// scan: a typed test a cell passes exactly when expr.Pred.Eval holds for
// each of the predicates on that cell's Value. It is compiled from the
// predicates' literals, never from a rounded float image, so INT64 columns
// filter exactly past 2^53 and NaN means what types.Datum.Compare says it
// means.
//
//   - INT64 and dictionary-code columns test one closed interval [lo, hi]
//     with a single unsigned compare, uint64(v-lo) <= span; a <> predicate
//     adds a closed interval to ne (a float literal can equal a run of
//     big ints).
//   - FLOAT64 columns test closed bounds [flo, fhi] (an exclusive bound is
//     its math.Nextafter) over the non-NaN cells, pass NaN when nan is
//     set, and exclude the points in neF.
//
// The exclusion lists are checked only when non-empty. A kernel no cell
// passes is empty — the scan reads and skips nothing for it — when the
// estimators' expr.Constraint for the same predicates is a contradiction
// too (a = 1 AND a = 2, or an equality on a string the dictionary lacks),
// so scans and estimates agree on which conjunctions are contradictions.
// Otherwise (a > 1 AND a < 2 on an INT64 column) it is marked none: the
// scan still reads the blocks its zone test keeps, and keeps no row.
type Kernel struct {
	col   *Column
	empty bool
	none  bool
	// INT64 and dictionary columns.
	lo, hi int64
	span   uint64
	ne     []wordRange
	// FLOAT64 columns.
	flo, fhi float64
	nan      bool
	neF      []float64
}

// wordRange is the closed interval [lo, lo+span] of int64 words.
type wordRange struct {
	lo   int64
	span uint64
}

func (w wordRange) holds(v int64) bool { return uint64(v-w.lo) <= w.span }

// newKernel returns the kernel every cell of c passes.
func (c *Column) newKernel() Kernel {
	if c.kind == types.KindFloat64 {
		return Kernel{col: c, flo: math.Inf(-1), fhi: math.Inf(1), nan: true}
	}
	return Kernel{col: c, lo: math.MinInt64, hi: math.MaxInt64}
}

// add tightens the kernel with the predicate "cell op lit".
func (k *Kernel) add(op expr.CmpOp, lit types.Datum) {
	if k.col.kind == types.KindFloat64 {
		k.addFloat(op, lit)
		return
	}
	// ge and gt are the first words comparing >= and > lit; Compare is
	// monotone in the word, so every op is an interval bounded by them.
	ge, gt, ok := k.col.wordBounds(lit)
	if !ok {
		// No cell compares with lit (the analyzer rejects such
		// predicates; the oracle panics on them).
		k.empty = true
		return
	}
	switch op {
	case expr.OpEq:
		k.tightenLo(ge)
		k.tightenHi(gt)
	case expr.OpNe:
		if ge.ok && (!gt.ok || gt.v > ge.v) {
			hi := int64(math.MaxInt64)
			if gt.ok {
				hi = gt.v - 1
			}
			k.ne = append(k.ne, wordRange{lo: ge.v, span: uint64(hi - ge.v)})
		}
	case expr.OpLt:
		k.tightenHi(ge)
	case expr.OpLe:
		k.tightenHi(gt)
	case expr.OpGt:
		k.tightenLo(gt)
	case expr.OpGe:
		k.tightenLo(ge)
	}
}

// wordBound is a word of the column's domain, or (ok false) the point past
// its greatest word.
type wordBound struct {
	v  int64
	ok bool
}

// tightenLo raises lo to first.
func (k *Kernel) tightenLo(first wordBound) {
	if !first.ok {
		k.noWord()
	} else if first.v > k.lo {
		k.lo = first.v
	}
}

// tightenHi lowers hi to the word before first.
func (k *Kernel) tightenHi(first wordBound) {
	switch {
	case !first.ok:
	case first.v == math.MinInt64:
		k.noWord()
	case first.v-1 < k.hi:
		k.hi = first.v - 1
	}
}

// noWord records that no int64 passes: the interval becomes
// [MaxInt64, MinInt64], whose zone test no block short of holding both
// extremes passes.
func (k *Kernel) noWord() { k.lo, k.hi, k.none = math.MaxInt64, math.MinInt64, true }

// wordBounds returns the first words of c's domain (int64 values, or
// dictionary codes) whose cells compare >= lit and > lit. ok is false when
// lit does not compare with c's cells.
func (c *Column) wordBounds(lit types.Datum) (ge, gt wordBound, ok bool) {
	if c.kind != types.KindInt64 {
		if lit.K != c.kind {
			return ge, gt, false
		}
		// Code len(dict), past the last, is a word no cell holds.
		i := sort.SearchStrings(c.dict, lit.S)
		j := i
		if i < len(c.dict) && c.dict[i] == lit.S {
			j++
		}
		return wordBound{int64(i), true}, wordBound{int64(j), true}, true
	}
	if !lit.IsNumeric() {
		return ge, gt, false
	}
	if lit.K == types.KindInt64 {
		return wordBound{lit.I, true}, wordBound{lit.I + 1, lit.I != math.MaxInt64}, true
	}
	// A float literal compares with float64(v), which is monotone in v but
	// not injective past 2^53: find each bound by binary search over the
	// comparison itself, once per scan.
	first := func(min int) wordBound {
		v, ok := searchInt64(func(v int64) bool { return types.Int(v).Compare(lit) >= min })
		return wordBound{v, ok}
	}
	return first(0), first(1), true
}

// searchInt64 returns the least v with f(v), for f false then true over
// the int64 order, and false when f holds for no v.
func searchInt64(f func(int64) bool) (int64, bool) {
	const bias = 1 << 63 // maps int64 order onto uint64 order
	if !f(math.MaxInt64) {
		return 0, false
	}
	lo, hi := uint64(0), uint64(math.MaxUint64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(int64(mid ^ bias)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int64(lo ^ bias), true
}

// addFloat tightens a FLOAT64 kernel. Under types.Datum.Compare's total
// order NaN equals NaN and sorts above +Inf, so the non-NaN cells passing
// one predicate form one closed interval, and NaN passes or not as a whole.
func (k *Kernel) addFloat(op expr.CmpOp, lit types.Datum) {
	if !lit.IsNumeric() {
		k.empty = true
		return
	}
	x := lit.AsFloat()
	noNumber := func() { k.flo, k.fhi = math.Inf(1), math.Inf(-1) }
	if math.IsNaN(x) {
		switch op {
		case expr.OpEq, expr.OpGe:
			noNumber()
		case expr.OpNe, expr.OpLt:
			k.nan = false
		case expr.OpGt:
			noNumber()
			k.nan = false
		}
		return
	}
	switch op {
	case expr.OpEq:
		k.flo, k.fhi = math.Max(k.flo, x), math.Min(k.fhi, x)
		k.nan = false
	case expr.OpNe:
		k.neF = append(k.neF, x)
	case expr.OpLt:
		if math.IsInf(x, -1) {
			noNumber()
		} else {
			k.fhi = math.Min(k.fhi, math.Nextafter(x, math.Inf(-1)))
		}
		k.nan = false
	case expr.OpLe:
		k.fhi = math.Min(k.fhi, x)
		k.nan = false
	case expr.OpGt:
		if math.IsInf(x, 1) {
			noNumber()
		} else {
			k.flo = math.Max(k.flo, math.Nextafter(x, math.Inf(1)))
		}
	case expr.OpGe:
		k.flo = math.Max(k.flo, x)
	}
}

// settle finishes compilation: exclusions outside the interval are
// dropped, and a kernel no cell can pass — an empty interval, or one its
// exclusions cover — is marked empty when contradiction (the estimators'
// verdict) agrees, and none otherwise.
func (k *Kernel) settle(contradiction bool) {
	var nothing bool
	if k.col.kind == types.KindFloat64 {
		ne := k.neF[:0]
		for _, x := range k.neF {
			if x >= k.flo && x <= k.fhi {
				ne = append(ne, x)
			}
		}
		k.neF = ne
		nothing = !k.nan && (k.flo > k.fhi || len(ne) > 0 && k.flo == k.fhi)
	} else {
		// Dictionary codes run from 0 to len(dict)-1.
		lo, hi := k.lo, k.hi
		if k.col.kind != types.KindInt64 {
			lo, hi = max(lo, 0), min(hi, int64(len(k.col.dict))-1)
		}
		nothing = k.none || lo > hi
		ne := k.ne[:0]
		for _, x := range k.ne {
			xhi := x.lo + int64(x.span)
			switch {
			case nothing || xhi < lo || x.lo > hi:
			case x.lo <= lo && xhi >= hi:
				nothing = true
			default:
				ne = append(ne, x)
			}
		}
		k.ne = ne
		k.span = uint64(k.hi - k.lo)
	}
	k.empty = k.empty || nothing && contradiction
	k.none = nothing && !k.empty
}

// passesZone reports whether block b's zone map leaves room for a cell
// that passes k. Metadata only: nothing is charged.
func (k *Kernel) passesZone(b int) bool {
	z := &k.col.zones[b]
	if k.col.kind == types.KindFloat64 {
		// A block of NaNs only has the empty number range [+Inf, -Inf].
		return z.flo <= z.fhi && z.fhi >= k.flo && z.flo <= k.fhi || k.nan && z.nan
	}
	return z.hi >= k.lo && z.lo <= k.hi
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectRange writes to out the ids base+i of the vals passing k's
// interval and exclusions, returning how many passed. Every id is written
// and the cursor advances by the test result, so the loop has no
// data-dependent branch; out must hold len(vals) ids.
func selectRange[T int32 | int64](k *Kernel, vals []T, base int32, out []int32) int {
	out = out[:len(vals)]
	n := 0
	lo, span := k.lo, k.span
	if len(k.ne) == 0 {
		for i, v := range vals {
			out[n] = base + int32(i)
			n += b2i(uint64(int64(v)-lo) <= span)
		}
		return n
	}
	for i, v := range vals {
		out[n] = base + int32(i)
		n += b2i(uint64(int64(v)-lo) <= span && !k.excluded(int64(v)))
	}
	return n
}

// selectRows keeps, in place and in order, the rows whose vals pass k.
func selectRows[T int32 | int64](k *Kernel, vals []T, rows []int32) int {
	n := 0
	lo, span := k.lo, k.span
	if len(k.ne) == 0 {
		for _, r := range rows {
			rows[n] = r
			n += b2i(uint64(int64(vals[r])-lo) <= span)
		}
		return n
	}
	for _, r := range rows {
		rows[n] = r
		v := int64(vals[r])
		n += b2i(uint64(v-lo) <= span && !k.excluded(v))
	}
	return n
}

func (k *Kernel) excluded(v int64) bool {
	for _, x := range k.ne {
		if x.holds(v) {
			return true
		}
	}
	return false
}

// passFloat is 1 when the FLOAT64 cell v passes k, 0 otherwise.
func (k *Kernel) passFloat(v float64, nan int) int {
	pass := b2i(v >= k.flo)&b2i(v <= k.fhi) | nan&b2i(math.IsNaN(v))
	for _, x := range k.neF {
		pass &= b2i(v != x)
	}
	return pass
}

func selectFloatRange(k *Kernel, vals []float64, base int32, out []int32) int {
	out = out[:len(vals)]
	n, nan := 0, b2i(k.nan)
	for i, v := range vals {
		out[n] = base + int32(i)
		n += k.passFloat(v, nan)
	}
	return n
}

func selectFloatRows(k *Kernel, vals []float64, rows []int32) int {
	n, nan := 0, b2i(k.nan)
	for _, r := range rows {
		rows[n] = r
		n += k.passFloat(vals[r], nan)
	}
	return n
}
