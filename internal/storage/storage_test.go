package storage

import (
	"sync"
	"testing"

	"bytecard/internal/expr"
	"bytecard/internal/types"
)

func buildTestTable(t *testing.T, n int) *Table {
	t.Helper()
	b := NewBuilder("t", []ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "score", Kind: types.KindFloat64},
		{Name: "tag", Kind: types.KindString},
	})
	tags := []string{"zeta", "alpha", "mid"}
	for i := 0; i < n; i++ {
		b.Append([]types.Datum{
			types.Int(int64(i)),
			types.Float(float64(i) / 2),
			types.Str(tags[i%3]),
		})
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	tab := buildTestTable(t, 10)
	if tab.Name() != "t" || tab.NumRows() != 10 || tab.NumCols() != 3 {
		t.Fatalf("basic metadata wrong: %s %d %d", tab.Name(), tab.NumRows(), tab.NumCols())
	}
	if tab.ColIndex("score") != 1 || tab.ColIndex("nope") != -1 {
		t.Error("ColIndex broken")
	}
	if tab.ColByName("tag") == nil || tab.ColByName("zz") != nil {
		t.Error("ColByName broken")
	}
	row := tab.Row(4)
	if row[0].I != 4 || row[1].F != 2 || row[2].S != "alpha" {
		t.Errorf("Row(4) = %v", row)
	}
	names := tab.ColumnNames()
	if len(names) != 3 || names[2] != "tag" {
		t.Errorf("ColumnNames = %v", names)
	}
}

func TestDictionarySortedAfterBuild(t *testing.T) {
	tab := buildTestTable(t, 6)
	col := tab.ColByName("tag")
	// Insertion order was zeta, alpha, mid; sorted order alpha < mid < zeta.
	if col.Value(0).S != "zeta" {
		t.Fatalf("row 0 tag = %v", col.Value(0))
	}
	av, _ := col.EncodeDatum(types.Str("alpha"))
	mv, _ := col.EncodeDatum(types.Str("mid"))
	zv, _ := col.EncodeDatum(types.Str("zeta"))
	if !(av < mv && mv < zv) {
		t.Errorf("dictionary codes not sorted: alpha=%g mid=%g zeta=%g", av, mv, zv)
	}
	// Numeric image must agree with the code.
	if col.Numeric(0) != zv {
		t.Errorf("Numeric(0) = %g, want %g", col.Numeric(0), zv)
	}
}

func TestEncodeDatumMissingString(t *testing.T) {
	tab := buildTestTable(t, 3)
	col := tab.ColByName("tag")
	v, found := col.EncodeDatum(types.Str("beta")) // between alpha and mid
	if found {
		t.Error("beta must not be found")
	}
	av, _ := col.EncodeDatum(types.Str("alpha"))
	mv, _ := col.EncodeDatum(types.Str("mid"))
	if !(v > av && v < mv) {
		t.Errorf("missing-string code %g must fall between alpha %g and mid %g", v, av, mv)
	}
}

func TestBuilderKindMismatchPanics(t *testing.T) {
	b := NewBuilder("x", []ColumnSpec{{Name: "a", Kind: types.KindInt64}})
	defer func() {
		if recover() == nil {
			t.Error("appending string into int column must panic")
		}
	}()
	b.Append([]types.Datum{types.Str("oops")})
}

func TestBuilderWidthMismatchPanics(t *testing.T) {
	b := NewBuilder("x", []ColumnSpec{{Name: "a", Kind: types.KindInt64}})
	defer func() {
		if recover() == nil {
			t.Error("wrong row width must panic")
		}
	}()
	b.Append([]types.Datum{types.Int(1), types.Int(2)})
}

func TestIntAcceptedIntoFloatColumn(t *testing.T) {
	b := NewBuilder("x", []ColumnSpec{{Name: "f", Kind: types.KindFloat64}})
	b.Append([]types.Datum{types.Int(7)})
	tab := b.Build()
	if tab.Col(0).Value(0).F != 7 {
		t.Error("int must coerce into float column")
	}
}

func TestBlockAccounting(t *testing.T) {
	tab := buildTestTable(t, BlockSize*2+100) // 3 blocks
	col := tab.ColByName("id")
	if col.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", col.NumBlocks())
	}
	var io IOStats
	r := col.NewReader(&io)
	_ = r.Numeric(0)
	_ = r.Numeric(1) // same block: no extra I/O
	if io.BlocksRead() != 1 {
		t.Errorf("BlocksRead = %d, want 1", io.BlocksRead())
	}
	_ = r.Value(BlockSize) // second block
	if io.BlocksRead() != 2 {
		t.Errorf("BlocksRead = %d, want 2", io.BlocksRead())
	}
	if r.BlocksTouched() != 2 {
		t.Errorf("BlocksTouched = %d, want 2", r.BlocksTouched())
	}
	if io.BytesRead() != 2*BlockSize*8 {
		t.Errorf("BytesRead = %d, want %d", io.BytesRead(), 2*BlockSize*8)
	}
}

func TestLoadAllCountsEveryBlockOnce(t *testing.T) {
	tab := buildTestTable(t, BlockSize+1)
	col := tab.ColByName("score")
	var io IOStats
	r := col.NewReader(&io)
	r.LoadAll()
	r.LoadAll()
	if io.BlocksRead() != 2 {
		t.Errorf("BlocksRead = %d, want 2 (idempotent)", io.BlocksRead())
	}
	// Last block is partial: 1 value * 8 bytes.
	want := int64(BlockSize*8 + 8)
	if io.BytesRead() != want {
		t.Errorf("BytesRead = %d, want %d", io.BytesRead(), want)
	}
}

func TestSiblingSharesBlockCharges(t *testing.T) {
	tab := buildTestTable(t, BlockSize*3)
	col := tab.ColByName("id")
	var io IOStats
	r := col.NewReader(&io)
	_ = r.Value(0)
	sib := r.Sibling()
	_ = sib.Value(1) // same block already charged by r
	if io.BlocksRead() != 1 {
		t.Errorf("BlocksRead = %d, want 1 (sibling must not re-charge)", io.BlocksRead())
	}
	_ = sib.Value(BlockSize) // fresh block through the sibling
	_ = r.Value(BlockSize + 1)
	if io.BlocksRead() != 2 {
		t.Errorf("BlocksRead = %d, want 2", io.BlocksRead())
	}
	// An independent reader over the same column charges separately.
	r2 := col.NewReader(&io)
	_ = r2.Value(0)
	if io.BlocksRead() != 3 {
		t.Errorf("BlocksRead = %d, want 3 (independent reader has its own charges)", io.BlocksRead())
	}
}

func TestSiblingConcurrentChargesOnce(t *testing.T) {
	tab := buildTestTable(t, BlockSize*8)
	col := tab.ColByName("score")
	var io IOStats
	root := col.NewReader(&io)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r := root.Sibling()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping ranges from every worker: half LoadAll, half
			// row-range loads.
			if w%2 == 0 {
				r.LoadAll()
			} else {
				r.LoadRange(w*BlockSize/2, col.Len())
			}
		}(w)
	}
	wg.Wait()
	if got, want := io.BlocksRead(), int64(col.NumBlocks()); got != want {
		t.Errorf("BlocksRead = %d, want %d (each block charged exactly once)", got, want)
	}
}

func TestLoadRangeTouchesOverlappingBlocks(t *testing.T) {
	tab := buildTestTable(t, BlockSize*4)
	col := tab.ColByName("id")
	var io IOStats
	r := col.NewReader(&io)
	r.LoadRange(BlockSize-1, BlockSize+1) // straddles blocks 0 and 1
	if io.BlocksRead() != 2 {
		t.Errorf("BlocksRead = %d, want 2", io.BlocksRead())
	}
	r.LoadRange(0, 0) // empty range
	r.LoadRange(5, 3) // inverted range
	if io.BlocksRead() != 2 {
		t.Errorf("degenerate ranges must not charge: %d", io.BlocksRead())
	}
}

func TestNilIOStatsReader(t *testing.T) {
	tab := buildTestTable(t, 10)
	r := tab.ColByName("id").NewReader(nil)
	if r.Numeric(5) != 5 {
		t.Error("reader without accounting must still read")
	}
}

func TestIOStatsReset(t *testing.T) {
	var io IOStats
	io.AddBlock(100)
	io.Reset()
	if io.BlocksRead() != 0 || io.BytesRead() != 0 {
		t.Error("Reset must zero counters")
	}
}

func TestStringColumnWidth(t *testing.T) {
	tab := buildTestTable(t, BlockSize)
	var io IOStats
	r := tab.ColByName("tag").NewReader(&io)
	r.LoadAll()
	if io.BytesRead() != BlockSize*4 {
		t.Errorf("string column bytes = %d, want %d", io.BytesRead(), BlockSize*4)
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Add(buildTestTable(t, 5))
	b := NewBuilder("u", []ColumnSpec{{Name: "a", Kind: types.KindInt64}})
	b.Append([]types.Datum{types.Int(1)})
	db.Add(b.Build())
	if db.Table("t") == nil || db.Table("u") == nil || db.Table("v") != nil {
		t.Error("Table lookup broken")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "t" || names[1] != "u" {
		t.Errorf("TableNames = %v", names)
	}
	if db.TotalRows() != 6 {
		t.Errorf("TotalRows = %d, want 6", db.TotalRows())
	}
	// Replacing keeps one entry.
	db.Add(buildTestTable(t, 7))
	if len(db.TableNames()) != 2 || db.Table("t").NumRows() != 7 {
		t.Error("replacement broken")
	}
}

func TestSizeBytes(t *testing.T) {
	tab := buildTestTable(t, 100)
	if tab.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
}

func TestNumericAll(t *testing.T) {
	tab := buildTestTable(t, 8)
	vals := tab.ColByName("id").NumericAll()
	if len(vals) != 8 || vals[7] != 7 {
		t.Errorf("NumericAll = %v", vals)
	}
}

func TestBlockOf(t *testing.T) {
	if BlockOf(0) != 0 || BlockOf(BlockSize-1) != 0 || BlockOf(BlockSize) != 1 {
		t.Error("BlockOf broken")
	}
}

// TestTypedAccessorsChargeLikeValue: Int, Float and Code return the stored
// value and charge exactly the blocks Value charges for the same rows.
func TestTypedAccessorsChargeLikeValue(t *testing.T) {
	tab := buildTestTable(t, 3*BlockSize+5)
	rows := []int{0, 7, BlockSize + 1, 3*BlockSize + 4, 8}
	var boxed, typed IOStats
	for _, name := range []string{"id", "score", "tag"} {
		col := tab.ColByName(name)
		rv, rt := col.NewReader(&boxed), col.NewReader(&typed)
		for _, i := range rows {
			want := rv.Value(i)
			switch col.Kind() {
			case types.KindInt64:
				if got := rt.Int(i); got != want.I {
					t.Errorf("%s[%d]: Int = %d, Value = %v", name, i, got, want)
				}
			case types.KindFloat64:
				if got := rt.Float(i); got != want.F {
					t.Errorf("%s[%d]: Float = %g, Value = %v", name, i, got, want)
				}
			default:
				if got := col.dict[rt.Code(i)]; got != want.S {
					t.Errorf("%s[%d]: Code → %q, Value = %v", name, i, got, want)
				}
			}
		}
	}
	if boxed.BlocksRead() != typed.BlocksRead() || boxed.BytesRead() != typed.BytesRead() {
		t.Errorf("typed reads charged %d blocks / %d bytes, Value reads %d / %d",
			typed.BlocksRead(), typed.BytesRead(), boxed.BlocksRead(), boxed.BytesRead())
	}
}

// TestGather: the gathered table holds the chosen rows in the given order,
// shares the base dictionary (member codes encode identically) and has zone
// maps of its own layout.
func TestGather(t *testing.T) {
	base := buildTestTable(t, 3*BlockSize)
	rows := []int32{int32(2*BlockSize + 7), 4, 4, int32(BlockSize)}
	g := base.Gather(rows)
	if g.Name() != "t" || g.NumRows() != len(rows) || g.ColIndex("tag") != 2 {
		t.Fatalf("metadata: %s %d rows, tag at %d", g.Name(), g.NumRows(), g.ColIndex("tag"))
	}
	for i, r := range rows {
		for j := 0; j < base.NumCols(); j++ {
			if got, want := g.Col(j).Value(i), base.Col(j).Value(int(r)); !got.Equal(want) {
				t.Errorf("row %d col %d = %v, want %v", i, j, got, want)
			}
		}
	}
	for _, s := range []string{"alpha", "mid", "zeta", "nope"} {
		gv, gok := g.ColByName("tag").EncodeDatum(types.Str(s))
		bv, bok := base.ColByName("tag").EncodeDatum(types.Str(s))
		if gv != bv || gok != bok {
			t.Errorf("EncodeDatum(%q): gathered %g/%v, base %g/%v", s, gv, gok, bv, bok)
		}
	}
	if z := g.ColByName("id").zones[0]; z.lo != 4 || z.hi != 2*BlockSize+7 {
		t.Errorf("gathered id zone = [%d, %d], want [4, %d]", z.lo, z.hi, 2*BlockSize+7)
	}
	if empty := base.Gather(nil); empty.NumRows() != 0 || empty.Col(0).NumBlocks() != 0 {
		t.Errorf("empty gather: %d rows, %d blocks", empty.NumRows(), empty.Col(0).NumBlocks())
	}
}

// TestBlockScanRefinesInPlace: a multi-stage scan appends exactly the rows
// that pass every constraint, after whatever dst already held, and a dst
// with room is not reallocated.
func TestBlockScanRefinesInPlace(t *testing.T) {
	tab := buildTestTable(t, 2*BlockSize+100)
	kernels := Compile(tab, []expr.Pred{
		{Col: "score", Op: expr.OpGe, Val: types.Int(100)},
		{Col: "tag", Op: expr.OpEq, Val: types.Str("mid")},
	})
	readers := []*Reader{tab.ColByName("score").NewReader(nil), tab.ColByName("tag").NewReader(nil)}
	dst := make([]int32, 1, tab.NumRows()+1)
	dst[0] = -1
	got := BlockScan(readers, ScanOptions{Kernels: kernels}, 0, tab.NumRows(), dst)
	want := []int32{-1}
	for i := 0; i < tab.NumRows(); i++ {
		if float64(i)/2 >= 100 && i%3 == 2 {
			want = append(want, int32(i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan kept %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if &got[0] != &dst[0] {
		t.Error("scan reallocated a dst that had room")
	}
}

// TestMergeDicts: remapped codes are equal exactly for equal strings, keep
// each side's order, and cover dictionaries that are disjoint, nested,
// empty, or the same.
func TestMergeDicts(t *testing.T) {
	col := func(vals ...string) *Column {
		b := NewBuilder("t", []ColumnSpec{{Name: "s", Kind: types.KindString}})
		for _, v := range vals {
			b.Append([]types.Datum{types.Str(v)})
		}
		return b.Build().ColByName("s")
	}
	cases := [][2]*Column{
		{col("b", "d", "a", "c"), col("c", "e", "b", "")},
		{col("x", "y"), col("a", "b")},
		{col("a", "b", "c"), col("b")},
		{col(), col("a")},
		{col("q", "p"), col("p", "q")},
	}
	for ci, c := range cases {
		ra, rb := MergeDicts(c[0], c[1])
		if len(ra) != c[0].DictSize() || len(rb) != c[1].DictSize() {
			t.Fatalf("case %d: remap sizes %d/%d for dictionaries %d/%d", ci, len(ra), len(rb), c[0].DictSize(), c[1].DictSize())
		}
		for i, sa := range c[0].dict {
			if i > 0 && ra[i] <= ra[i-1] {
				t.Errorf("case %d: left remap not increasing at %d", ci, i)
			}
			for j, sb := range c[1].dict {
				if (ra[i] == rb[j]) != (sa == sb) {
					t.Errorf("case %d: %q→%d vs %q→%d", ci, sa, ra[i], sb, rb[j])
				}
			}
		}
	}
}
