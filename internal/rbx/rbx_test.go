package rbx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bytecard/internal/nn"
	"bytecard/internal/sample"
	"bytecard/internal/types"
)

// trainSmall trains a reduced model once for the whole test file.
var testModel *Model

func getModel(t *testing.T) *Model {
	t.Helper()
	if testModel == nil {
		m, err := Train(TrainConfig{Columns: 500, Epochs: 25, Seed: 1, MaxPop: 50000})
		if err != nil {
			t.Fatal(err)
		}
		testModel = m
	}
	return testModel
}

// profileOf samples a concrete value slice at the given rate.
func profileOf(rng *rand.Rand, values []int64, rate float64) sample.Profile {
	var sampled []types.Datum
	for _, v := range values {
		if rng.Float64() < rate {
			sampled = append(sampled, types.Int(v))
		}
	}
	return sample.ProfileOfValues(sampled, int64(len(values)))
}

func trueNDV(values []int64) float64 {
	seen := map[int64]bool{}
	for _, v := range values {
		seen[v] = true
	}
	return float64(len(seen))
}

func qerr(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	return math.Max(est/truth, truth/est)
}

func TestFeatureShape(t *testing.T) {
	p := sample.ProfileOfValues([]types.Datum{types.Int(1), types.Int(1), types.Int(2)}, 100)
	x := Features(p)
	if len(x) != FeatureDim {
		t.Fatalf("feature dim %d, want %d", len(x), FeatureDim)
	}
	if x[0] != math.Log1p(1) { // one singleton (value 2)
		t.Errorf("f1 feature = %g", x[0])
	}
	if x[1] != math.Log1p(1) { // one doubleton (value 1)
		t.Errorf("f2 feature = %g", x[1])
	}
}

func TestSevenLayerArchitecture(t *testing.T) {
	m := getModel(t)
	if got := len(m.Net.Layers); got != 7 {
		t.Errorf("layers = %d, want 7 (the paper's seven-layer network)", got)
	}
	if m.Net.InputDim() != FeatureDim {
		t.Errorf("input dim = %d", m.Net.InputDim())
	}
	if m.TrainSeconds <= 0 {
		t.Error("training time not recorded")
	}
}

func TestEstimateUniformColumn(t *testing.T) {
	m := getModel(t)
	rng := rand.New(rand.NewSource(2))
	// 40000 rows over 5000 distinct values, 2% sample.
	values := make([]int64, 40000)
	for i := range values {
		values[i] = int64(rng.Intn(5000))
	}
	p := profileOf(rng, values, 0.02)
	est := m.EstimateNDV(p)
	if q := qerr(est, trueNDV(values)); q > 2.5 {
		t.Errorf("uniform NDV est %g vs truth %g (q=%g)", est, trueNDV(values), q)
	}
}

func TestEstimateZipfColumn(t *testing.T) {
	m := getModel(t)
	rng := rand.New(rand.NewSource(3))
	z := rand.NewZipf(rng, 1.4, 1, 9999)
	values := make([]int64, 40000)
	for i := range values {
		values[i] = int64(z.Uint64())
	}
	p := profileOf(rng, values, 0.02)
	est := m.EstimateNDV(p)
	if q := qerr(est, trueNDV(values)); q > 3.5 {
		t.Errorf("zipf NDV est %g vs truth %g (q=%g)", est, trueNDV(values), q)
	}
}

func TestEstimateBeatsGEEOnSkew(t *testing.T) {
	// Aggregate Q-error across several skewed columns: the learned
	// estimator should beat GEE overall (the reason the paper picked it).
	m := getModel(t)
	rng := rand.New(rand.NewSource(4))
	var rbxTotal, geeTotal float64
	for trial := 0; trial < 6; trial++ {
		z := rand.NewZipf(rng, 1.2+rng.Float64(), 1, uint64(2000+rng.Intn(20000)))
		values := make([]int64, 30000)
		for i := range values {
			values[i] = int64(z.Uint64())
		}
		p := profileOf(rng, values, 0.02)
		truth := trueNDV(values)
		rbxTotal += math.Log(qerr(m.EstimateNDV(p), truth))
		geeTotal += math.Log(qerr(p.GEE(), truth))
	}
	if rbxTotal > geeTotal*1.1 {
		t.Errorf("RBX mean log q-error %g worse than GEE %g", rbxTotal/6, geeTotal/6)
	}
}

func TestEstimateClamps(t *testing.T) {
	m := getModel(t)
	// Tiny sample: estimate must stay within [sampleNDV, popRows].
	vals := []types.Datum{types.Int(1), types.Int(2), types.Int(3)}
	p := sample.ProfileOfValues(vals, 50)
	est := m.EstimateNDV(p)
	if est < 3 || est > 50 {
		t.Errorf("estimate %g outside [3,50]", est)
	}
	if m.EstimateNDV(sample.Profile{Freq: make([]float64, sample.ProfileLen)}) != 0 {
		t.Error("empty profile must estimate 0")
	}
}

func TestFineTuneReducesUnderestimation(t *testing.T) {
	m := getModel(t)
	rng := rand.New(rand.NewSource(5))
	// High-NDV column: 90% of rows distinct, very low sampling rate — the
	// regime where the base model underestimates.
	makeCol := func() ([]int64, sample.Profile) {
		n := 50000
		values := make([]int64, n)
		for i := range values {
			if rng.Float64() < 0.9 {
				values[i] = int64(i) + 1000000
			} else {
				values[i] = int64(rng.Intn(100))
			}
		}
		return values, profileOf(rng, values, 0.01)
	}
	var profiles []sample.Profile
	var truths []float64
	for i := 0; i < 5; i++ {
		v, p := makeCol()
		profiles = append(profiles, p)
		truths = append(truths, trueNDV(v))
	}
	testV, testP := makeCol()
	before := m.EstimateNDVForColumn("t.session", testP)
	if err := m.FineTune("t.session", profiles, truths, FineTuneConfig{Epochs: 30, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	after := m.EstimateNDVForColumn("t.session", testP)
	truth := trueNDV(testV)
	if qerr(after, truth) > qerr(before, truth)*1.05 {
		t.Errorf("fine-tune did not help: before %g after %g truth %g", before, after, truth)
	}
	// Other columns still use the base network.
	base := m.EstimateNDV(testP)
	other := m.EstimateNDVForColumn("t.other", testP)
	if base != other {
		t.Error("non-calibrated columns must use the base network")
	}
	delete(m.Calibrated, "t.session") // restore shared model
}

func TestFineTuneErrors(t *testing.T) {
	m := getModel(t)
	if err := m.FineTune("c", nil, nil, FineTuneConfig{}); err == nil {
		t.Error("empty fine-tune set must fail")
	}
	if err := m.FineTune("c", []sample.Profile{{}}, []float64{1, 2}, FineTuneConfig{}); err == nil {
		t.Error("mismatched shapes must fail")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m := getModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p := sample.ProfileOfValues([]types.Datum{types.Int(1), types.Int(2)}, 100)
	if m.EstimateNDV(p) != m2.EstimateNDV(p) {
		t.Error("roundtrip changed estimates")
	}
}

func TestValidate(t *testing.T) {
	m := getModel(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Model{}
	if err := bad.Validate(); err == nil {
		t.Error("missing network must fail")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("garbage must fail decode")
	}
}

func TestBinomial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if binomial(rng, 0, 0.5) != 0 || binomial(rng, 10, 0) != 0 || binomial(rng, 10, 1) != 10 {
		t.Error("binomial edge cases broken")
	}
	var sum float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		sum += float64(binomial(rng, 1000, 0.3))
	}
	mean := sum / trials
	if math.Abs(mean-300) > 5 {
		t.Errorf("binomial mean %g, want ~300", mean)
	}
}

func TestSyntheticCorpusShapes(t *testing.T) {
	xs, ys := SyntheticCorpus(50, 20000, 3)
	if len(xs) != 50 || len(ys) != 50 {
		t.Fatalf("corpus sizes %d/%d", len(xs), len(ys))
	}
	for i := range xs {
		if len(xs[i]) != FeatureDim {
			t.Fatalf("row %d dim %d", i, len(xs[i]))
		}
		if math.IsNaN(ys[i]) || ys[i] < -1e-9 {
			t.Fatalf("target %d = %g (log ratio must be >= 0)", i, ys[i])
		}
	}
}

// TestSparseForwardEstimatesMatchDense: the decoded (validated) model,
// whose network skips zero profile entries, estimates bit-identically to
// the same weights summed densely, over profiles from uniform, skewed and
// near-unique columns at several sampling rates.
func TestSparseForwardEstimatesMatchDense(t *testing.T) {
	m := getModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	dense := &Model{Net: &nn.Network{Layers: m.Net.Layers}}
	rng := rand.New(rand.NewSource(17))
	ran := 0
	for iter := 0; iter < 200; iter++ {
		n := 2000 + rng.Intn(30000)
		values := make([]int64, n)
		d := 1 + rng.Intn(n)
		for i := range values {
			switch iter % 3 {
			case 0:
				values[i] = int64(rng.Intn(d))
			case 1:
				values[i] = int64(float64(d) * math.Pow(rng.Float64(), 4))
			default:
				values[i] = int64(i)
			}
		}
		p := profileOf(rng, values, 0.002+rng.Float64()*0.1)
		got, want := sparse.EstimateNDV(p), dense.EstimateNDV(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("profile %d (rows %g, ndv %g): sparse %v, dense %v", iter, p.SampleRows, p.SampleNDV, got, want)
		}
		if p.PopRows > p.SampleRows*1.05 {
			ran++
		}
	}
	if ran < 150 {
		t.Fatalf("only %d of 200 profiles reached the network", ran)
	}
}

// weightsSHA256 hashes every weight then bias of each layer, as
// little-endian IEEE-754 bits.
func weightsSHA256(n *nn.Network) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range n.Layers {
		for _, vs := range [][]float64{l.W, l.B} {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaseConcurrent calls Base from eight goroutines at once: training
// runs once, and every caller gets the same bytes. It precedes every other
// caller of Base in this package, so its goroutines race to train.
func TestBaseConcurrent(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	got := make([][]byte, callers)
	errs := make([]error, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = Base()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] || !bytes.Equal(got[i], got[0]) {
			t.Fatalf("caller %d got different bytes from caller 0", i)
		}
	}
}

// TestDefaultBaseNetworkPinned pins the weights of the base network every
// System serves (Base, trained from DefaultConfig). Training kernels may
// change only in ways that keep every trained weight bit-identical. The
// hash was recorded on amd64, where Go never fuses x*y+z into one FMA
// instruction; on arm64, ppc64le, s390x and riscv64 it may, which rounds
// once instead of twice and changes the weights, so the pin runs on amd64
// only.
func TestDefaultBaseNetworkPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("weights pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	data, _, err := Base()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	const want = "1ce47ca438c250acdf70f4eac1c661e7d251146d6459bc8828aed067301f1ff7"
	if got := weightsSHA256(m.Net); got != want {
		t.Errorf("base network weights hash %s, want %s", got, want)
	}
}
