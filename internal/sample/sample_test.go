package sample

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"bytecard/internal/expr"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

func TestReservoirUnderCapacity(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 0; i < 50; i++ {
		r.Offer(int32(i))
	}
	if len(r.Rows()) != 50 || r.Seen() != 50 {
		t.Fatalf("rows=%d seen=%d, want 50/50", len(r.Rows()), r.Seen())
	}
	if r.Rate() != 1 {
		t.Errorf("rate = %g, want 1", r.Rate())
	}
}

func TestReservoirCapacityBound(t *testing.T) {
	r := NewReservoir(64, 2)
	for i := 0; i < 10000; i++ {
		r.Offer(int32(i))
	}
	if len(r.Rows()) != 64 {
		t.Fatalf("rows=%d, want 64", len(r.Rows()))
	}
	if math.Abs(r.Rate()-64.0/10000) > 1e-12 {
		t.Errorf("rate = %g", r.Rate())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Offer 0..999 into a 100-slot reservoir many times; the mean of the
	// sampled ids should approximate the population mean.
	var sum, n float64
	for seed := int64(0); seed < 30; seed++ {
		r := NewReservoir(100, seed)
		for i := 0; i < 1000; i++ {
			r.Offer(int32(i))
		}
		for _, id := range r.Rows() {
			sum += float64(id)
			n++
		}
	}
	mean := sum / n
	if math.Abs(mean-499.5) > 25 {
		t.Errorf("sample mean %g far from population mean 499.5", mean)
	}
}

// rowReservoir is the reservoir as it was when it copied whole Datum rows:
// the oracle the id reservoir must reproduce slot for slot.
type rowReservoir struct {
	capacity int
	seen     int64
	rows     []datumRow
	rng      *rand.Rand
}

type datumRow []types.Datum

func (r *rowReservoir) offer(row datumRow) {
	r.seen++
	cp := make(datumRow, len(row))
	copy(cp, row)
	if len(r.rows) < r.capacity {
		r.rows = append(r.rows, cp)
		return
	}
	j := r.rng.Int63n(r.seen)
	if j < int64(r.capacity) {
		r.rows[j] = cp
	}
}

// TestReservoirMatchesRowCopyingOracle pins the id reservoir to the
// row-copying one it replaced: same seed, same offers, the same rows in
// the same slots — so every sample frame holds the rows it always held.
func TestReservoirMatchesRowCopyingOracle(t *testing.T) {
	base := testTable(rand.New(rand.NewSource(5)), 5000)
	for _, c := range []struct {
		capacity int
		seed     int64
	}{{1, 1}, {64, 2}, {700, 3}, {4999, 4}, {5000, 5}, {20000, 6}} {
		oracle := &rowReservoir{capacity: c.capacity, rng: rand.New(rand.NewSource(c.seed))}
		for i := 0; i < base.NumRows(); i++ {
			oracle.offer(base.Row(i))
		}
		f := SampleTable(base, c.capacity, c.seed)
		if f.Len() != len(oracle.rows) || f.PopSize() != int64(base.NumRows()) {
			t.Fatalf("capacity %d: frame %d rows of %d, oracle %d rows", c.capacity, f.Len(), f.PopSize(), len(oracle.rows))
		}
		for i, row := range oracle.rows {
			for j, want := range row {
				if got := f.Table().Col(j).Value(i); got.K != want.K || got.Hash64() != want.Hash64() {
					t.Fatalf("capacity %d: slot %d column %d = %v, oracle %v", c.capacity, i, j, got, want)
				}
			}
		}
	}
}

func TestReservoirPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReservoir(0, 1)
}

// makeFrame is a frame over all n rows of a table with a = i mod 10 and
// b = i, drawn from a population of 100n.
func makeFrame(n int) *Frame {
	b := storage.NewBuilder("t", []storage.ColumnSpec{{Name: "a", Kind: types.KindInt64}, {Name: "b", Kind: types.KindInt64}})
	ids := make([]int32, n)
	for i := range ids {
		b.Append([]types.Datum{types.Int(int64(i % 10)), types.Int(int64(i))})
		ids[i] = int32(i)
	}
	return newFrame(b.Build(), ids, int64(n)*100)
}

func lt(col string, v int64) *expr.Node {
	return expr.Leaf(expr.Pred{Col: col, Op: expr.OpLt, Val: types.Int(v)})
}

func TestFrameBasics(t *testing.T) {
	f := makeFrame(50)
	if f.Len() != 50 || f.PopSize() != 5000 {
		t.Fatalf("len=%d pop=%d", f.Len(), f.PopSize())
	}
	tab := f.Table()
	if tab.ColIndex("a") != 0 || tab.ColIndex("b") != 1 || tab.ColIndex("zz") != -1 {
		t.Error("column lookup broken")
	}
	if tab.ColByName("b").Value(3).I != 3 {
		t.Error("cell access broken")
	}
	all, err := f.Select(nil, nil)
	if err != nil || len(all) != 50 || all[49] != 49 {
		t.Errorf("Select(nil) = %d rows, err %v", len(all), err)
	}
}

func TestFrameFilterScalesPopulation(t *testing.T) {
	f := makeFrame(100)
	sel, err := f.Select(lt("a", 5), nil)
	if err != nil || len(sel) != 50 {
		t.Fatalf("filtered len=%d (err %v), want 50", len(sel), err)
	}
	p, err := f.ProfileOf(lt("a", 5), "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleRows != 50 || p.PopRows != 5000 {
		t.Errorf("filtered rows=%g pop=%g, want 50 and 5000 (half of 10000)", p.SampleRows, p.PopRows)
	}
}

func TestFrameFilterEmpty(t *testing.T) {
	f := makeFrame(10)
	p, err := f.ProfileOf(lt("a", 0), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleRows != 0 || p.PopRows != 0 || p.SampleNDV != 0 {
		t.Errorf("empty filter: rows=%g pop=%g ndv=%g", p.SampleRows, p.PopRows, p.SampleNDV)
	}
}

func TestProfileOfSingleColumn(t *testing.T) {
	// Column "a" cycles 0..9 over 100 rows: 10 distinct values, each 10x.
	f := makeFrame(100)
	p, err := f.ProfileOf(nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleNDV != 10 {
		t.Errorf("SampleNDV = %g, want 10", p.SampleNDV)
	}
	if p.Freq[9] != 10 {
		t.Errorf("Freq[9] = %g, want 10 (all values appear 10 times)", p.Freq[9])
	}
	if p.SampleRows != 100 || p.PopRows != 10000 {
		t.Errorf("SampleRows = %g, PopRows = %g", p.SampleRows, p.PopRows)
	}
}

func TestProfileOfCompositeKey(t *testing.T) {
	f := makeFrame(100)
	p, err := f.ProfileOf(nil, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// b is unique per row, so every composite is unique.
	if p.SampleNDV != 100 || p.Freq[0] != 100 {
		t.Errorf("composite profile: NDV=%g f1=%g, want 100/100", p.SampleNDV, p.Freq[0])
	}
}

func TestProfileUnknownColumnErrors(t *testing.T) {
	f := makeFrame(5)
	if _, err := f.ProfileOf(nil, "nope"); err == nil {
		t.Error("unknown group column: want an error")
	}
	if _, err := f.ProfileOf(lt("nope", 1), "a"); err == nil {
		t.Error("unknown filter column: want an error")
	}
	if _, err := f.ProfileOf(expr.Or(lt("a", 1), lt("nope", 1)), "a"); err == nil {
		t.Error("unknown filter column under OR: want an error")
	}
}

// TestSelectWideDNFErrors: a filter whose DNF exceeds expr.MaxDNFTerms is
// refused (the estimator falls back), never evaluated approximately.
func TestSelectWideDNFErrors(t *testing.T) {
	f := makeFrame(20)
	var and []*expr.Node
	for i := 0; i < 5; i++ { // (a<i OR b<i) five times: 32 DNF terms
		and = append(and, expr.Or(lt("a", int64(i)), lt("b", int64(i))))
	}
	if _, err := f.Select(expr.And(and...), nil); err == nil {
		t.Error("32-term DNF: want an error")
	}
	if _, err := f.ProfileOf(expr.And(and...), "a"); err == nil {
		t.Error("32-term DNF profile: want an error")
	}
}

func TestProfileTailBucket(t *testing.T) {
	vals := make([]types.Datum, 0, 500)
	for i := 0; i < 500; i++ {
		vals = append(vals, types.Int(7)) // one value, multiplicity 500
	}
	p := ProfileOfValues(vals, 500)
	if p.Freq[ProfileLen-1] != 1 {
		t.Errorf("tail bucket = %g, want 1", p.Freq[ProfileLen-1])
	}
}

func TestGEEUniqueColumn(t *testing.T) {
	vals := make([]types.Datum, 1000)
	for i := range vals {
		vals[i] = types.Int(int64(i))
	}
	p := ProfileOfValues(vals, 100000)
	est := p.GEE()
	// All f1: GEE = sqrt(100000/1000)*1000 = 10000*sqrt(10)/... = 10*1000.
	want := math.Sqrt(100.0) * 1000
	if math.Abs(est-want)/want > 0.01 {
		t.Errorf("GEE = %g, want %g", est, want)
	}
}

func TestGEEBoundedByPopulation(t *testing.T) {
	vals := []types.Datum{types.Int(1), types.Int(2)}
	p := ProfileOfValues(vals, 3)
	if est := p.GEE(); est > 3 {
		t.Errorf("GEE = %g exceeds population 3", est)
	}
}

func TestGEEAtLeastSampleNDV(t *testing.T) {
	vals := make([]types.Datum, 0, 100)
	for i := 0; i < 50; i++ {
		vals = append(vals, types.Int(int64(i)), types.Int(int64(i)))
	}
	p := ProfileOfValues(vals, 1000)
	if est := p.GEE(); est < 50 {
		t.Errorf("GEE = %g below sample NDV 50", est)
	}
}

func TestGEEEmpty(t *testing.T) {
	p := ProfileOfValues(nil, 0)
	if p.GEE() != 0 {
		t.Error("empty profile GEE must be 0")
	}
}

// Property: profile frequencies always sum to the sample NDV and weighted
// multiplicities recover the row count (when nothing lands in the tail).
func TestQuickProfileInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]types.Datum, len(raw))
		for i, b := range raw {
			vals[i] = types.Int(int64(b % 16))
		}
		p := ProfileOfValues(vals, int64(len(vals)))
		var ndv, rows float64
		for j, c := range p.Freq {
			ndv += c
			rows += float64(j+1) * c
		}
		if ndv != p.SampleNDV {
			return false
		}
		// Row-count identity only exact when the tail bucket is empty.
		if len(raw) < ProfileLen && rows != p.SampleRows {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// testColumns are the property test's columns: narrow and wide ints,
// floats over a pool holding −0/+0, integral values (some past int64's
// range) and ±Inf, wide floats,
// and narrow and wide strings.
var testColumns = []storage.ColumnSpec{
	{Name: "i_narrow", Kind: types.KindInt64},
	{Name: "i_wide", Kind: types.KindInt64},
	{Name: "f_pool", Kind: types.KindFloat64},
	{Name: "f_wide", Kind: types.KindFloat64},
	{Name: "s_narrow", Kind: types.KindString},
	{Name: "s_wide", Kind: types.KindString},
}

var floatPool = []float64{math.Copysign(0, -1), 0, 1, -1, 2, 2.5, -3.75, 1e6, 1e300, 2e300, -1e19, math.Inf(1), math.Inf(-1), 0.1}

func testTable(rng *rand.Rand, n int) *storage.Table {
	b := storage.NewBuilder("t", testColumns)
	for i := 0; i < n; i++ {
		b.Append([]types.Datum{
			types.Int(int64(rng.Intn(7))),
			types.Int(int64(rng.Intn(4*n+1) - 2*n)),
			types.Float(floatPool[rng.Intn(len(floatPool))]),
			types.Float(float64(rng.Intn(2*n+1)) / 4),
			types.Str(fmt.Sprintf("s%d", rng.Intn(5))),
			types.Str(fmt.Sprintf("w%04d", rng.Intn(n+1))),
		})
	}
	return b.Build()
}

// randomLiteral draws a literal for column c: usually a value present in
// the table, otherwise one that is absent (or, for floats, a pool edge).
func randomLiteral(rng *rand.Rand, tab *storage.Table, c int) types.Datum {
	if tab.NumRows() > 0 && rng.Intn(3) > 0 {
		return tab.Col(c).Value(rng.Intn(tab.NumRows()))
	}
	switch tab.Col(c).Kind() {
	case types.KindInt64:
		return types.Int(int64(rng.Intn(20001) - 10000))
	case types.KindFloat64:
		if rng.Intn(2) == 0 {
			return types.Float(floatPool[rng.Intn(len(floatPool))])
		}
		return types.Float(rng.NormFloat64() * 1000)
	default:
		return types.Str(fmt.Sprintf("%c%d", "swx"[rng.Intn(3)], rng.Intn(100)))
	}
}

func randomLeaf(rng *rand.Rand, tab *storage.Table) *expr.Node {
	c := rng.Intn(tab.NumCols())
	return expr.Leaf(expr.Pred{Table: "t", Col: tab.Col(c).Name(), Op: expr.CmpOp(rng.Intn(6)), Val: randomLiteral(rng, tab, c)})
}

func randomConj(rng *rand.Rand, tab *storage.Table) *expr.Node {
	var leaves []*expr.Node
	for k := 1 + rng.Intn(3); k > 0; k-- {
		leaves = append(leaves, randomLeaf(rng, tab))
	}
	return expr.And(leaves...)
}

// randomFilter is nil, a conjunction, an OR of conjunctions, or a
// conjunction of such an OR with more leaves — always within MaxDNFTerms.
func randomFilter(rng *rand.Rand, tab *storage.Table) *expr.Node {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return randomConj(rng, tab)
	default:
		var terms []*expr.Node
		for k := 2 + rng.Intn(3); k > 0; k-- {
			terms = append(terms, randomConj(rng, tab))
		}
		or := expr.Or(terms...)
		if rng.Intn(2) == 0 {
			return or
		}
		return expr.And(or, randomConj(rng, tab))
	}
}

// oracleProfile is the profile as the row-major frame computed it: the
// Hash64 of each group cell folded into one composite hash, counted in a
// map, with the population scaled by the surviving fraction.
func oracleProfile(base *storage.Table, ids, sel []int32, cols []string, pop int64) Profile {
	counts := map[uint64]int{}
	for _, r := range sel {
		var h uint64 = 1469598103934665603
		for _, c := range cols {
			h = h*1099511628211 ^ base.ColByName(c).Value(int(ids[r])).Hash64()
		}
		counts[h]++
	}
	p := Profile{Freq: make([]float64, ProfileLen), SampleRows: float64(len(sel)), SampleNDV: float64(len(counts)), PopRows: float64(pop)}
	if len(ids) > 0 {
		p.PopRows = math.Round(float64(pop) * float64(len(sel)) / float64(len(ids)))
	}
	for _, c := range counts {
		p.Freq[min(c, ProfileLen)-1]++
	}
	return p
}

func sameProfile(a, b Profile) bool {
	if a.SampleRows != b.SampleRows || a.SampleNDV != b.SampleNDV || a.PopRows != b.PopRows || len(a.Freq) != len(b.Freq) {
		return false
	}
	for i := range a.Freq {
		if a.Freq[i] != b.Freq[i] {
			return false
		}
	}
	return true
}

// TestFrameMatchesEvalOracle is the columnar frame's property test: over
// random frames (int, float and string columns, frames spanning several
// storage blocks) and random conjunctive and OR filters with member and
// non-member literals, Select returns exactly the rows expr.Node.Eval
// accepts on the base table, and ProfileOf over 1–4 group columns equals
// the Hash64-combined map profile.
func TestFrameMatchesEvalOracle(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		n := rng.Intn(3*storage.BlockSize + 1)
		if iter%4 == 0 {
			n = rng.Intn(40)
		}
		base := testTable(rng, n)
		ids := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				ids = append(ids, int32(i))
			}
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		pop := int64(n)*int64(1+rng.Intn(50)) + 1
		f := newFrame(base, ids, pop)
		for q := 0; q < 8; q++ {
			filter := randomFilter(rng, base)
			var want []int32
			for i, id := range ids {
				if filter.Eval(func(_, col string) types.Datum { return base.ColByName(col).Value(int(id)) }) {
					want = append(want, int32(i))
				}
			}
			got, err := f.Select(filter, nil)
			if err != nil {
				t.Fatalf("iter %d: Select(%s): %v", iter, filter, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d: Select(%s) = %d rows, Eval %d rows\n got %v\nwant %v", iter, filter, len(got), len(want), got, want)
			}
			perm := rng.Perm(len(testColumns))
			var cols []string
			for _, c := range perm[:1+rng.Intn(4)] {
				cols = append(cols, testColumns[c].Name)
			}
			p, err := f.ProfileOf(filter, cols...)
			if err != nil {
				t.Fatal(err)
			}
			if w := oracleProfile(base, ids, want, cols, pop); !sameProfile(p, w) {
				t.Fatalf("iter %d: ProfileOf(%s, %v): rows %g ndv %g pop %g, oracle rows %g ndv %g pop %g",
					iter, filter, cols, p.SampleRows, p.SampleNDV, p.PopRows, w.SampleRows, w.SampleNDV, w.PopRows)
			}
		}
	}
}

// TestProfileWideKeys covers the code spaces past the flat table: a
// two-column key of ~10⁷ codes (open addressing) and a six-column key of
// ~10²⁰ codes, which overflows 64 bits and is re-coded densely mid-way.
func TestProfileWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := testTable(rng, 3000)
	ids := make([]int32, base.NumRows())
	for i := range ids {
		ids[i] = int32(i)
	}
	f := newFrame(base, ids, 90000)
	all, _ := f.Select(nil, nil)
	for _, cols := range [][]string{
		{"i_wide", "s_wide"},
		{"i_wide", "s_wide", "f_wide", "i_narrow", "s_narrow", "f_pool"},
		{"i_narrow", "s_narrow", "f_pool", "i_wide", "f_wide", "s_wide"},
	} {
		p, err := f.ProfileOf(nil, cols...)
		if err != nil {
			t.Fatal(err)
		}
		if w := oracleProfile(base, ids, all, cols, 90000); !sameProfile(p, w) {
			t.Errorf("%v: ndv %g f1 %g, oracle ndv %g f1 %g", cols, p.SampleNDV, p.Freq[0], w.SampleNDV, w.Freq[0])
		}
	}
}

// TestProfileConcurrent: concurrent calls on one frame share nothing but
// the immutable frame (run under -race).
func TestProfileConcurrent(t *testing.T) {
	f := makeFrame(3000)
	filter := expr.Or(lt("a", 3), expr.And(lt("b", 2000), expr.Leaf(expr.Pred{Col: "b", Op: expr.OpGe, Val: types.Int(1500)})))
	want, err := f.ProfileOf(filter, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if p, err := f.ProfileOf(filter, "a", "b"); err != nil || !sameProfile(p, want) {
					t.Errorf("concurrent profile differs (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
