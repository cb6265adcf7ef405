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

// checkScan checks one conjunction on the edge table against the oracle:
// Compile's kernels must keep exactly the rows every expr.Pred.Eval keeps,
// through BlockScan and through Reader.Filter, and BlockScan must charge
// and skip exactly the blocks a row-at-a-time reference scan would.
func checkScan(t *testing.T, preds []expr.Pred) {
	t.Helper()
	tab := edgeTableOnce()
	kernels := Compile(tab, preds)
	n := tab.NumRows()
	nb := tab.Col(0).NumBlocks()

	// passes[k][row]: row passes every predicate on kernel k's column.
	passes := make([][]bool, len(kernels))
	for k := range kernels {
		col := kernels[k].Column()
		passes[k] = make([]bool, n)
		for row := 0; row < n; row++ {
			if b := BlockOf(row); b < nb-1 && row%BlockSize != 0 {
				passes[k][row] = passes[k][row-1] // constant block
				continue
			}
			ok := true
			for _, p := range preds {
				if p.Col == col.Name() && !p.Eval(col.Value(row)) {
					ok = false
				}
			}
			passes[k][row] = ok
		}
	}
	empty := false
	for k := range kernels {
		if kernels[k].Empty() {
			empty = true
			for row := 0; row < n; row++ {
				if passes[k][row] {
					t.Fatalf("%v: kernel on %s is empty, but row %d passes", preds, kernels[k].Column().Name(), row)
				}
			}
		}
	}

	// The row-at-a-time reference: zone decisions per block, then rows
	// stage by stage, charging a later column only where candidates remain.
	var wantRows []int32
	wantCharged := make([]int, len(kernels))
	wantSkipped := make([]int, len(kernels))
	for b := 0; b < nb && !empty; b++ {
		lo, hi := b*BlockSize, min((b+1)*BlockSize, n)
		if !zonePasses(kernels, b) {
			for k := range kernels {
				wantSkipped[k]++
			}
			for row := lo; row < hi; row++ {
				all := true
				for k := range kernels {
					all = all && passes[k][row]
				}
				if all {
					t.Fatalf("%v: block %d pruned, but row %d passes", preds, b, row)
				}
			}
			continue
		}
		cand := make([]int, 0, hi-lo)
		for row := lo; row < hi; row++ {
			cand = append(cand, row)
		}
		for k := range kernels {
			if len(cand) == 0 {
				break
			}
			wantCharged[k]++
			kept := cand[:0]
			for _, row := range cand {
				if passes[k][row] {
					kept = append(kept, row)
				}
			}
			cand = kept
		}
		for _, row := range cand {
			wantRows = append(wantRows, int32(row))
		}
	}
	// A constant block whose value fails a range predicate is pruned.
	for b := 0; b < nb-1 && !empty; b++ {
		for k := range kernels {
			col := kernels[k].Column()
			v := col.Value(b * BlockSize)
			for _, p := range preds {
				if p.Col == col.Name() && p.Op != expr.OpNe && !p.Eval(v) && zonePasses(kernels, b) {
					t.Fatalf("%v: block %d holds only %v, fails %v, and is not pruned", preds, b, v, p)
				}
			}
		}
	}

	var io IOStats
	readers := make([]*Reader, len(kernels))
	for k := range kernels {
		readers[k] = kernels[k].Column().NewReader(&io)
	}
	got := BlockScan(readers, ScanOptions{Kernels: kernels}, 0, n, nil)
	if !equalRows(got, wantRows) {
		t.Fatalf("%v: BlockScan keeps %d rows, the oracle %d", preds, len(got), len(wantRows))
	}
	var charged, skipped int
	for k, r := range readers {
		if r.BlocksCharged() != wantCharged[k] || r.BlocksSkipped() != wantSkipped[k] {
			t.Fatalf("%v: column %s charged/skipped %d/%d blocks, reference %d/%d",
				preds, kernels[k].Column().Name(), r.BlocksCharged(), r.BlocksSkipped(), wantCharged[k], wantSkipped[k])
		}
		charged += wantCharged[k]
		skipped += wantSkipped[k]
	}
	if io.BlocksRead() != int64(charged) || io.BlocksSkipped() != int64(skipped) {
		t.Fatalf("%v: IOStats %d read / %d skipped, reference %d / %d", preds, io.BlocksRead(), io.BlocksSkipped(), charged, skipped)
	}

	// Reader.Filter, the executor's path: every kernel over every row.
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for k := range kernels {
		r := kernels[k].Column().NewReader(nil)
		rows = r.Filter(&kernels[k], rows)
	}
	if empty {
		wantRows = nil
	}
	if !equalRows(rows, wantRows) {
		t.Fatalf("%v: Reader.Filter keeps %d rows, the oracle %d", preds, len(rows), len(wantRows))
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

var edgeOps = []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// TestKernelParity checks every kind's kernel against expr.Pred.Eval cell
// by cell: each operator with each literal alone, then random conjunctions
// over the three columns with exclusive bounds and duplicated <> points.
func TestKernelParity(t *testing.T) {
	for _, col := range []string{"i", "f", "s"} {
		for _, op := range edgeOps {
			for _, lit := range edgeLits[col] {
				checkScan(t, []expr.Pred{{Col: col, Op: op, Val: lit}})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	cols := []string{"i", "f", "s"}
	conjunctions := 600
	if testing.Short() {
		conjunctions = 100
	}
	for c := 0; c < conjunctions; c++ {
		var preds []expr.Pred
		for j := rng.Intn(4) + 1; j > 0; j-- {
			col := cols[rng.Intn(len(cols))]
			lits := edgeLits[col]
			p := expr.Pred{Col: col, Op: edgeOps[rng.Intn(len(edgeOps))], Val: lits[rng.Intn(len(lits))]}
			preds = append(preds, p)
			if p.Op == expr.OpNe && rng.Intn(2) == 0 {
				preds = append(preds, p)
			}
		}
		checkScan(t, preds)
	}
}

// TestKernelEmptyFollowsConstraint: a kernel no cell passes lets the scan
// skip its column only when the estimators' expr.Constraint finds the same
// contradiction; otherwise the scan reads the blocks its zone test keeps
// and keeps no row.
func TestKernelEmptyFollowsConstraint(t *testing.T) {
	tab := buildTestTable(t, 3*BlockSize)
	pred := func(col string, op expr.CmpOp, v types.Datum) expr.Pred { return expr.Pred{Col: col, Op: op, Val: v} }
	for _, c := range []struct {
		preds []expr.Pred
		empty bool
		read  int
	}{
		{[]expr.Pred{pred("id", expr.OpEq, types.Int(1)), pred("id", expr.OpEq, types.Int(2))}, true, 0},
		{[]expr.Pred{pred("tag", expr.OpEq, types.Str("beta"))}, true, 0},
		{[]expr.Pred{pred("id", expr.OpEq, types.Int(5)), pred("id", expr.OpNe, types.Int(5))}, true, 0},
		{[]expr.Pred{pred("id", expr.OpGt, types.Int(1)), pred("id", expr.OpLt, types.Int(2))}, false, 1},
		{[]expr.Pred{pred("id", expr.OpEq, types.Float(2.5))}, false, 1},
		{[]expr.Pred{pred("id", expr.OpGe, types.Int(5)), pred("id", expr.OpLe, types.Int(5)), pred("id", expr.OpNe, types.Int(5))}, false, 1},
		{[]expr.Pred{pred("tag", expr.OpGt, types.Str("alpha")), pred("tag", expr.OpLt, types.Str("mid"))}, false, 3},
	} {
		k := Compile(tab, c.preds)
		r := k[0].Column().NewReader(nil)
		rows := BlockScan([]*Reader{r}, ScanOptions{Kernels: k}, 0, tab.NumRows(), nil)
		if k[0].Empty() != c.empty || len(rows) != 0 || r.BlocksCharged() != c.read {
			t.Errorf("%v: empty %v, %d rows, %d blocks read; want empty %v, no row, %d blocks", c.preds, k[0].Empty(), len(rows), r.BlocksCharged(), c.empty, c.read)
		}
	}
}

// FuzzBlockScan checks checkScan's property on conjunctions the fuzzer
// spells: each byte triple picks a column, an operator and a literal, the
// literal drawn from the edge pools or, past them, the fuzzed int or float.
func FuzzBlockScan(f *testing.F) {
	f.Add([]byte{0, 2, 12}, int64(p53+1), 2.5)
	f.Add([]byte{1, 1, 14, 1, 0, 3}, int64(5), math.NaN())
	f.Add([]byte{2, 4, 3, 2, 1, 3}, int64(0), math.Inf(-1))
	f.Add([]byte{0, 1, 200, 0, 1, 200, 0, 5, 201}, int64(-3), -0.0)
	f.Fuzz(func(t *testing.T, spec []byte, iv int64, fv float64) {
		cols := []string{"i", "f", "s"}
		var preds []expr.Pred
		for j := 0; j+2 < len(spec) && len(preds) < 6; j += 3 {
			col := cols[int(spec[j])%len(cols)]
			lits := edgeLits[col]
			var lit types.Datum
			switch idx := int(spec[j+2]); {
			case idx < len(lits):
				lit = lits[idx]
			case col == "s":
				lit = types.Str(string(spec[j:]))
			case idx%2 == 0:
				lit = types.Int(iv)
			default:
				lit = types.Float(fv)
			}
			preds = append(preds, expr.Pred{Col: col, Op: edgeOps[int(spec[j+1])%len(edgeOps)], Val: lit})
		}
		if len(preds) > 0 {
			checkScan(t, preds)
		}
	})
}

// TestBlockScanAllocs holds BlockScan to its contract: a caller whose dst
// has room, scanning with compiled kernels, allocates nothing — for int,
// float and code columns, with and without a <> exclusion.
func TestBlockScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	tab := edgeTableOnce()
	dst := make([]int32, 0, tab.NumRows())
	for _, preds := range [][]expr.Pred{
		{{Col: "i", Op: expr.OpGe, Val: types.Int(-1)}},
		{{Col: "i", Op: expr.OpGe, Val: types.Int(-1)}, {Col: "i", Op: expr.OpNe, Val: types.Int(2)}},
		{{Col: "f", Op: expr.OpLt, Val: types.Float(5)}},
		{{Col: "f", Op: expr.OpLt, Val: types.Float(5)}, {Col: "f", Op: expr.OpNe, Val: types.Float(1)}},
		{{Col: "s", Op: expr.OpGt, Val: types.Str("b")}},
		{{Col: "s", Op: expr.OpGt, Val: types.Str("b")}, {Col: "s", Op: expr.OpNe, Val: types.Str("m")}},
		{{Col: "i", Op: expr.OpGe, Val: types.Int(0)}, {Col: "f", Op: expr.OpGe, Val: types.Int(0)}, {Col: "s", Op: expr.OpNe, Val: types.Str("zz")}},
	} {
		kernels := Compile(tab, preds)
		var io IOStats
		readers := make([]*Reader, len(kernels))
		for k := range kernels {
			readers[k] = kernels[k].Column().NewReader(&io)
		}
		opts := ScanOptions{Kernels: kernels}
		var kept int
		if allocs := testing.AllocsPerRun(20, func() {
			kept = len(BlockScan(readers, opts, 0, tab.NumRows(), dst[:0]))
		}); allocs != 0 {
			t.Errorf("%v: %.0f allocs per scan", preds, allocs)
		}
		if kept == 0 {
			t.Errorf("%v: the scan kept no row", preds)
		}
	}
}
