package bn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bytecard/internal/expr"
	"bytecard/internal/types"
)

// sampleCorrelated draws (a, b, c): a uniform in 0..3, b = a with prob 0.8
// else uniform, c independent uniform in 0..1.
func sampleCorrelated(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, 3)
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	for r := 0; r < n; r++ {
		a := float64(rng.Intn(4))
		b := a
		if rng.Float64() > 0.8 {
			b = float64(rng.Intn(4))
		}
		cols[0][r] = a
		cols[1][r] = b
		cols[2][r] = float64(rng.Intn(2))
	}
	return cols
}

func trainCorrelated(t *testing.T, n int) *Model {
	t.Helper()
	m, err := Train(TrainConfig{
		Table:    "t",
		ColNames: []string{"a", "b", "c"},
		Sample:   sampleCorrelated(n, 7),
		Laplace:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func eqConstraint(col string, v float64) expr.Constraint {
	c := expr.NewConstraint(col)
	c.Add(expr.OpEq, v, true)
	return c
}

func rangeConstraint(col string, op expr.CmpOp, v float64) expr.Constraint {
	c := expr.NewConstraint(col)
	c.Add(op, v, true)
	return c
}

func TestTrainProducesValidModel(t *testing.T) {
	m := trainCorrelated(t, 5000)
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid model: %v", err)
	}
	if m.Root() < 0 {
		t.Fatal("no root")
	}
	if m.TrainSeconds <= 0 {
		t.Error("train time not recorded")
	}
	if m.SizeBytes() <= 0 {
		t.Error("size not positive")
	}
}

func TestChowLiuLinksCorrelatedColumns(t *testing.T) {
	m := trainCorrelated(t, 8000)
	// a and b are strongly dependent: they must be adjacent in the tree.
	ai, bi := m.ColIndex("a"), m.ColIndex("b")
	if !(m.Parent[ai] == bi || m.Parent[bi] == ai) {
		t.Errorf("a and b must be adjacent; parents = %v", m.Parent)
	}
}

func TestJointMatchesEmpirical(t *testing.T) {
	sample := sampleCorrelated(20000, 11)
	m, err := Train(TrainConfig{Table: "t", ColNames: []string{"a", "b", "c"}, Sample: sample, Laplace: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	// Check P(a=x ∧ b=y) against empirical joint for all pairs.
	n := float64(len(sample[0]))
	for x := 0.0; x < 4; x++ {
		for y := 0.0; y < 4; y++ {
			got, err := ctx.SelectivityConj([]expr.Constraint{eqConstraint("a", x), eqConstraint("b", y)})
			if err != nil {
				t.Fatal(err)
			}
			var cnt float64
			for r := range sample[0] {
				if sample[0][r] == x && sample[1][r] == y {
					cnt++
				}
			}
			want := cnt / n
			if math.Abs(got-want) > 0.02 {
				t.Errorf("P(a=%g,b=%g) = %g, want %g", x, y, got, want)
			}
		}
	}
}

func TestUnconstrainedProbabilityIsOne(t *testing.T) {
	m := trainCorrelated(t, 2000)
	ctx, _ := m.NewContext()
	got, err := ctx.SelectivityConj(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("P(no evidence) = %g, want 1", got)
	}
}

func TestProbMatchesBruteForceEnumeration(t *testing.T) {
	m := trainCorrelated(t, 3000)
	ctx, _ := m.NewContext()
	// Enumerate the model's own joint distribution directly and compare
	// against the VE result for random soft evidence.
	rng := rand.New(rand.NewSource(3))
	enumerate := func(weights [][]float64) float64 {
		root := m.Root()
		var total float64
		var rec func(assign []int, idx int, prob float64)
		order := ctx.topo
		rec = func(assign []int, ti int, prob float64) {
			if ti == len(order) {
				total += prob
				return
			}
			i := order[ti]
			for b := 0; b < m.Cols[i].Bins(); b++ {
				var p float64
				if i == root {
					p = m.Prior[b]
				} else {
					pb := assign[m.Parent[i]]
					p = m.CPT[i][pb*m.Cols[i].Bins()+b]
				}
				w := 1.0
				if weights[i] != nil {
					w = weights[i][b]
				}
				assign[i] = b
				rec(assign, ti+1, prob*p*w)
			}
			assign[i] = -1
		}
		assign := make([]int, len(m.Cols))
		rec(assign, 0, 1)
		return total
	}
	for trial := 0; trial < 20; trial++ {
		weights := make([][]float64, len(m.Cols))
		for i := range weights {
			if rng.Intn(2) == 0 {
				continue
			}
			w := make([]float64, m.Cols[i].Bins())
			for b := range w {
				w[b] = rng.Float64()
			}
			weights[i] = w
		}
		got := ctx.Prob(weights)
		want := enumerate(weights)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: VE %g vs enumeration %g", trial, got, want)
		}
	}
}

func TestMarginalsConsistency(t *testing.T) {
	m := trainCorrelated(t, 3000)
	ctx, _ := m.NewContext()
	weights := make([][]float64, len(m.Cols))
	w := make([]float64, m.Cols[0].Bins())
	w[1] = 1
	w[2] = 0.5
	weights[0] = w
	pe, belief, pair := ctx.Marginals(weights)
	for i := range m.Cols {
		var sum float64
		for _, v := range belief[i] {
			sum += v
		}
		if math.Abs(sum-pe) > 1e-9*(1+pe) {
			t.Errorf("node %d belief sums to %g, want P(e)=%g", i, sum, pe)
		}
		if i != m.Root() {
			var psum float64
			for _, v := range pair[i] {
				psum += v
			}
			if math.Abs(psum-pe) > 1e-9*(1+pe) {
				t.Errorf("node %d pairwise sums to %g, want %g", i, psum, pe)
			}
		}
	}
}

func TestJointWithColumnMatchesIndicators(t *testing.T) {
	m := trainCorrelated(t, 4000)
	ctx, _ := m.NewContext()
	cons := []expr.Constraint{eqConstraint("c", 1)}
	cols := []string{"b", "a"}
	vecs, err := ctx.JointWithColumns(cons, cols)
	if err != nil {
		t.Fatal(err)
	}
	for k, col := range cols {
		ci := m.ColIndex(col)
		for b := 0; b < m.Cols[ci].Bins(); b++ {
			weights := make([][]float64, len(m.Cols))
			wc := make([]float64, m.Cols[m.ColIndex("c")].Bins())
			wc[1] = 1
			weights[m.ColIndex("c")] = wc
			wb := make([]float64, m.Cols[ci].Bins())
			wb[b] = 1
			weights[ci] = wb
			want := ctx.Prob(weights)
			if math.Abs(vecs[k][b]-want) > 1e-9*(1+want) {
				t.Errorf("%s bucket %d: joint %g vs indicator %g", col, b, vecs[k][b], want)
			}
		}
	}
}

func TestBinnedRangeSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20000
	cols := [][]float64{make([]float64, n)}
	for r := 0; r < n; r++ {
		cols[0][r] = rng.Float64() * 1000
	}
	m, err := Train(TrainConfig{Table: "t", ColNames: []string{"v"}, Sample: cols, MaxBins: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := m.NewContext()
	got, err := ctx.SelectivityConj([]expr.Constraint{rangeConstraint("v", expr.OpLt, 250)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 0.03 {
		t.Errorf("P(v<250) = %g, want ~0.25", got)
	}
}

func TestEMWithMissingValues(t *testing.T) {
	sample := sampleCorrelated(8000, 13)
	n := len(sample[0])
	missing := make([][]bool, 3)
	rng := rand.New(rand.NewSource(17))
	for c := range missing {
		missing[c] = make([]bool, n)
	}
	for r := 0; r < n; r++ {
		if rng.Float64() < 0.25 {
			missing[rng.Intn(3)][r] = true
		}
	}
	m, err := Train(TrainConfig{
		Table:        "t",
		ColNames:     []string{"a", "b", "c"},
		Sample:       sample,
		Missing:      missing,
		Laplace:      0.1,
		EMIterations: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := m.NewContext()
	// The strong a↔b dependence must survive EM: P(b=2 | a=2) >> P(b=2).
	pa2b2, _ := ctx.SelectivityConj([]expr.Constraint{eqConstraint("a", 2), eqConstraint("b", 2)})
	pa2, _ := ctx.SelectivityConj([]expr.Constraint{eqConstraint("a", 2)})
	pb2, _ := ctx.SelectivityConj([]expr.Constraint{eqConstraint("b", 2)})
	if pa2b2/pa2 < 2*pb2 {
		t.Errorf("EM lost correlation: P(b|a)=%g vs P(b)=%g", pa2b2/pa2, pb2)
	}
}

func TestTreeWalkerMatchesContext(t *testing.T) {
	m := trainCorrelated(t, 3000)
	ctx, _ := m.NewContext()
	tw, err := m.NewTreeWalker()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		weights := make([][]float64, len(m.Cols))
		for i := range weights {
			if rng.Intn(2) == 0 {
				continue
			}
			w := make([]float64, m.Cols[i].Bins())
			for b := range w {
				w[b] = rng.Float64()
			}
			weights[i] = w
		}
		a, b := ctx.Prob(weights), tw.Prob(weights)
		if math.Abs(a-b) > 1e-12*(1+a) {
			t.Fatalf("context %g vs tree walker %g", a, b)
		}
	}
}

func TestConcurrentInference(t *testing.T) {
	m := trainCorrelated(t, 3000)
	ctx, _ := m.NewContext()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				_, err := ctx.SelectivityConj([]expr.Constraint{eqConstraint("a", float64(k%4))})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	m := trainCorrelated(t, 1000)
	// Introduce a cycle between two non-root nodes.
	root := m.Root()
	var a, b = -1, -1
	for i := range m.Parent {
		if i != root {
			if a < 0 {
				a = i
			} else {
				b = i
			}
		}
	}
	m.Parent[a], m.Parent[b] = b, a
	if err := m.Validate(); err == nil {
		t.Error("cycle must fail health detection")
	}
}

func TestValidateDetectsBadDistribution(t *testing.T) {
	m := trainCorrelated(t, 1000)
	m.Prior[0] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN prior must fail validation")
	}
	m = trainCorrelated(t, 1000)
	m.Prior[0] += 0.5
	if err := m.Validate(); err == nil {
		t.Error("unnormalized prior must fail validation")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m := trainCorrelated(t, 2000)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, _ := m.NewContext()
	ctx2, _ := m2.NewContext()
	a, _ := ctx1.SelectivityConj([]expr.Constraint{eqConstraint("a", 1)})
	b, _ := ctx2.SelectivityConj([]expr.Constraint{eqConstraint("a", 1)})
	if a != b {
		t.Errorf("roundtrip changed inference: %g vs %g", a, b)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("junk")); err == nil {
		t.Error("garbage must fail")
	}
}

func TestSelectivityNodeInclusionExclusion(t *testing.T) {
	sample := sampleCorrelated(10000, 29)
	m, err := Train(TrainConfig{Table: "t", ColNames: []string{"a", "b", "c"}, Sample: sample, Laplace: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := m.NewContext()
	// P(a=1 OR b=2) via inclusion-exclusion vs empirical.
	tree := expr.Or(
		expr.Leaf(expr.Pred{Col: "a", Op: expr.OpEq, Val: types.Int(1)}),
		expr.Leaf(expr.Pred{Col: "b", Op: expr.OpEq, Val: types.Int(2)}),
	)
	enc := func(_ string, d types.Datum) (float64, bool) { return d.AsFloat(), true }
	got, err := ctx.SelectivityNode(tree, enc)
	if err != nil {
		t.Fatal(err)
	}
	var cnt float64
	for r := range sample[0] {
		if sample[0][r] == 1 || sample[1][r] == 2 {
			cnt++
		}
	}
	want := cnt / float64(len(sample[0]))
	if math.Abs(got-want) > 0.02 {
		t.Errorf("P(a=1 OR b=2) = %g, want %g", got, want)
	}
}

func TestUnknownColumnErrors(t *testing.T) {
	m := trainCorrelated(t, 1000)
	ctx, _ := m.NewContext()
	if _, err := ctx.SelectivityConj([]expr.Constraint{eqConstraint("zz", 1)}); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := ctx.JointWithColumns(nil, []string{"a", "zz"}); err == nil {
		t.Error("unknown key column must error")
	}
	if _, err := m.WeightsFor("zz", eqConstraint("zz", 1)); err == nil {
		t.Error("unknown column must error in WeightsFor")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(TrainConfig{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := Train(TrainConfig{ColNames: []string{"a"}, Sample: [][]float64{{}}}); err == nil {
		t.Error("empty sample must fail")
	}
	if _, err := Train(TrainConfig{ColNames: []string{"a", "b"}, Sample: [][]float64{{1, 2}, {1}}}); err == nil {
		t.Error("ragged sample must fail")
	}
}

func TestForcedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 5000
	cols := [][]float64{make([]float64, n)}
	for r := 0; r < n; r++ {
		cols[0][r] = float64(rng.Intn(1000))
	}
	bounds := []float64{0, 250, 500, 750, 1000}
	m, err := Train(TrainConfig{
		Table:        "t",
		ColNames:     []string{"k"},
		Sample:       cols,
		ForcedBounds: map[string][]float64{"k": bounds},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cols[0].Bins() != 4 {
		t.Errorf("bins = %d, want 4", m.Cols[0].Bins())
	}
	ctx, _ := m.NewContext()
	vecs, err := ctx.JointWithColumns(nil, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range vecs[0] {
		if math.Abs(v-0.25) > 0.03 {
			t.Errorf("bucket %d probability %g, want ~0.25", b, v)
		}
	}
}

func TestColumnModelBinOf(t *testing.T) {
	cm := ColumnModel{Bounds: []float64{0, 10, 20, 30}}
	cases := map[float64]int{0: 0, 5: 0, 10: 1, 19: 1, 20: 2, 30: 2, -1: -1, 31: -1}
	for v, want := range cases {
		if got := cm.BinOf(v); got != want {
			t.Errorf("BinOf(%g) = %d, want %d", v, got, want)
		}
	}
	cat := ColumnModel{Categorical: true, Values: []float64{1, 3, 5}}
	if cat.BinOf(3) != 1 || cat.BinOf(4) != -1 {
		t.Error("categorical BinOf broken")
	}
}

func TestSingleColumnModel(t *testing.T) {
	cols := [][]float64{{1, 1, 2, 2, 2, 3}}
	m, err := Train(TrainConfig{Table: "t", ColNames: []string{"x"}, Sample: cols, Laplace: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := m.NewContext()
	got, _ := ctx.SelectivityConj([]expr.Constraint{eqConstraint("x", 2)})
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("P(x=2) = %g, want ~0.5", got)
	}
}
