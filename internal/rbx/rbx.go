// Package rbx implements the workload-independent learned NDV estimator
// ByteCard adopts for COUNT-DISTINCT: a seven-layer neural network over the
// "frequency profile" of a sample (how many distinct values occur exactly
// j times), trained once on a synthetic corpus spanning many distribution
// families and reused across workloads. A calibration path fine-tunes
// per-column copies with a reduced learning rate and an asymmetric penalty
// against underestimation — the paper's remedy for exceptionally high-NDV
// columns.
package rbx

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bytecard/internal/nn"
	"bytecard/internal/sample"
)

// FeatureDim is the network input width: the 100-entry frequency profile
// plus log sample size, log population size, and log inverse sampling rate.
const FeatureDim = sample.ProfileLen + 3

// Layers is the hidden architecture: seven weight layers end to end.
var Layers = []int{FeatureDim, 128, 128, 64, 64, 32, 16, 1}

// Features encodes a frequency profile for the network.
func Features(p sample.Profile) []float64 {
	x := make([]float64, FeatureDim)
	for i, f := range p.Freq {
		x[i] = math.Log1p(f)
	}
	x[sample.ProfileLen] = math.Log1p(p.SampleRows)
	x[sample.ProfileLen+1] = math.Log1p(p.PopRows)
	ratio := 1.0
	if p.SampleRows > 0 {
		ratio = p.PopRows / p.SampleRows
	}
	x[sample.ProfileLen+2] = math.Log(math.Max(ratio, 1))
	return x
}

// target is the regression target: the log ratio of population NDV to
// sample NDV.
func target(trueNDV, sampleNDV float64) float64 {
	return math.Log((trueNDV + 1) / (sampleNDV + 1))
}

// Model is a trained RBX estimator with optional per-column calibrations.
type Model struct {
	Net *nn.Network
	// Calibrated maps "table.column" to a fine-tuned copy used only for
	// that column.
	Calibrated map[string]*nn.Network
	// TrainSeconds records base training time.
	TrainSeconds float64
}

// TrainConfig controls base training.
type TrainConfig struct {
	// Columns is the synthetic corpus size (default 1200).
	Columns int
	// Epochs, LR, BatchSize configure optimization (defaults 30, 1e-3, 64).
	Epochs    int
	LR        float64
	BatchSize int
	Seed      int64
	// MaxPop bounds synthetic population sizes (default 100000).
	MaxPop int
}

func (c *TrainConfig) fill() {
	if c.Columns <= 0 {
		c.Columns = 1200
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxPop <= 0 {
		c.MaxPop = 100000
	}
}

// DefaultConfig is the base network's training configuration. It is a
// constant of the program: every System in every process serves the one
// network it trains, whatever the dataset or data seed.
var DefaultConfig = TrainConfig{Columns: 300, Epochs: 10, MaxPop: 50000, Seed: 10}

// Base returns the encoded base model trained from DefaultConfig and the
// seconds that training took. It trains at most once per process, on the
// first call; every caller gets the same bytes and must not modify them.
func Base() (data []byte, trainSeconds float64, err error) {
	b, err := base()
	return b.data, b.trainSeconds, err
}

type baseArtifact struct {
	data         []byte
	trainSeconds float64
}

var base = sync.OnceValues(func() (baseArtifact, error) {
	m, err := Train(DefaultConfig)
	if err != nil {
		return baseArtifact{}, err
	}
	data, err := m.Encode()
	return baseArtifact{data: data, trainSeconds: m.TrainSeconds}, err
})

// Train builds the synthetic corpus and fits a base network.
func Train(cfg TrainConfig) (*Model, error) {
	cfg.fill()
	start := time.Now()
	x, y := SyntheticCorpus(cfg.Columns, cfg.MaxPop, cfg.Seed)
	net := nn.NewNetwork(cfg.Seed+1, Layers...)
	if _, err := net.Train(x, y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		LR:        cfg.LR,
		Seed:      cfg.Seed + 2,
	}); err != nil {
		return nil, err
	}
	return &Model{
		Net:          net,
		Calibrated:   map[string]*nn.Network{},
		TrainSeconds: time.Since(start).Seconds(),
	}, nil
}

// SyntheticCorpus generates (features, targets) from columns drawn across
// distribution families — uniform, Zipf of varying skew, near-unique
// identifiers, heavy-hitter mixtures, and few-distinct categoricals — at
// varying population sizes and sampling rates. Workload independence comes
// from this breadth: no real queries or tables are involved.
func SyntheticCorpus(columns, maxPop int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var xs [][]float64
	var ys []float64
	for i := 0; i < columns; i++ {
		pop := int(math.Exp(rng.Float64()*math.Log(float64(maxPop)/1000) + math.Log(1000)))
		prof, trueNDV := simulateColumn(rng, pop)
		xs = append(xs, Features(prof))
		ys = append(ys, target(trueNDV, prof.SampleNDV))
	}
	return xs, ys
}

// simulateColumn draws a population frequency vector from a random family,
// then binomially subsamples it into a frequency profile.
func simulateColumn(rng *rand.Rand, pop int) (sample.Profile, float64) {
	rate := math.Exp(rng.Float64()*math.Log(100) - math.Log(500)) // ~[0.002, 0.2]
	if rate > 0.5 {
		rate = 0.5
	}
	family := rng.Intn(5)
	var freqs []int
	switch family {
	case 0: // uniform over D distinct values
		d := 1 + rng.Intn(pop)
		freqs = uniformFreqs(pop, d)
	case 1: // zipf
		d := 10 + rng.Intn(pop/2+1)
		freqs = zipfFreqs(rng, pop, d, 1.05+rng.Float64()*1.5)
	case 2: // near-unique identifiers
		freqs = uniformFreqs(pop, pop-rng.Intn(pop/20+1))
	case 3: // heavy hitters + long tail
		heavy := 1 + rng.Intn(5)
		freqs = heavyHitterFreqs(rng, pop, heavy)
	default: // few distinct values
		d := 1 + rng.Intn(200)
		freqs = zipfFreqs(rng, pop, d, 1.0+rng.Float64())
	}
	return sampleFreqs(rng, freqs, rate, pop)
}

// sampleFreqs binomially subsamples each distinct value's population
// frequency at rate and profiles what survived.
func sampleFreqs(rng *rand.Rand, freqs []int, rate float64, pop int) (sample.Profile, float64) {
	counts := make([]int, len(freqs))
	var sampled int
	for i, f := range freqs {
		counts[i] = binomial(rng, f, rate)
		sampled += counts[i]
	}
	return sample.ProfileFromCounts(counts, sampled, int64(pop)), float64(len(freqs))
}

func uniformFreqs(pop, d int) []int {
	if d > pop {
		d = pop
	}
	if d < 1 {
		d = 1
	}
	base := pop / d
	rem := pop % d
	freqs := make([]int, d)
	for i := range freqs {
		freqs[i] = base
		if i < rem {
			freqs[i]++
		}
	}
	return freqs
}

func zipfFreqs(rng *rand.Rand, pop, d int, s float64) []int {
	if d < 1 {
		d = 1
	}
	weights := make([]float64, d)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	freqs := make([]int, 0, d)
	assigned := 0
	for i := range weights {
		f := int(math.Round(weights[i] / total * float64(pop)))
		if f < 1 {
			f = 1
		}
		if assigned+f > pop {
			f = pop - assigned
		}
		if f <= 0 {
			break
		}
		freqs = append(freqs, f)
		assigned += f
	}
	_ = rng
	return freqs
}

func heavyHitterFreqs(rng *rand.Rand, pop, heavy int) []int {
	var freqs []int
	remaining := pop
	for i := 0; i < heavy && remaining > 10; i++ {
		f := remaining / (2 + rng.Intn(3))
		freqs = append(freqs, f)
		remaining -= f
	}
	// Long tail of near-singletons.
	for remaining > 0 {
		f := 1 + rng.Intn(3)
		if f > remaining {
			f = remaining
		}
		freqs = append(freqs, f)
		remaining -= f
	}
	return freqs
}

// binomial draws Binomial(n, p) with a normal approximation for large n.
func binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < 32 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	std := math.Sqrt(mean * (1 - p))
	k := int(math.Round(rng.NormFloat64()*std + mean))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// EstimateNDV predicts the population NDV from a sample profile, clamped to
// [sample NDV, population rows].
func (m *Model) EstimateNDV(p sample.Profile) float64 {
	return m.estimateWith(m.Net, p)
}

// EstimateNDVForColumn uses the column's calibrated network when one
// exists (the paper's per-column calibration protocol), otherwise the base
// network.
func (m *Model) EstimateNDVForColumn(column string, p sample.Profile) float64 {
	if net, ok := m.Calibrated[column]; ok {
		return m.estimateWith(net, p)
	}
	return m.estimateWith(m.Net, p)
}

func (m *Model) estimateWith(net *nn.Network, p sample.Profile) float64 {
	if p.SampleRows == 0 {
		return 0
	}
	if p.PopRows <= p.SampleRows*1.05 {
		// The sample covers (nearly) the whole population: the sample NDV
		// is the answer; no learned extrapolation is needed.
		return p.SampleNDV
	}
	y := net.Forward(Features(p))[0]
	est := math.Exp(y)*(p.SampleNDV+1) - 1
	if est < p.SampleNDV {
		est = p.SampleNDV
	}
	if p.PopRows > 0 && est > p.PopRows {
		est = p.PopRows
	}
	return est
}

// FineTuneConfig controls per-column calibration.
type FineTuneConfig struct {
	// Epochs and LR default to 40 and 1e-4 (the reduced rate the paper
	// prescribes for calibration).
	Epochs int
	LR     float64
	// UnderPenalty weights underestimation (default 6).
	UnderPenalty float64
	// HighNDVColumns is the number of synthetic high-NDV columns mixed in
	// (default 300).
	HighNDVColumns int
	Seed           int64
}

// FineTune calibrates a copy of the base network for one problematic
// column. profiles/truths are sampled observations of that column (the
// Model Monitor gathers them); the training set is augmented with
// synthetic high-NDV columns and optimization restarts from the trained
// checkpoint with a reduced learning rate and an asymmetric penalty for
// underestimation.
func (m *Model) FineTune(column string, profiles []sample.Profile, truths []float64, cfg FineTuneConfig) error {
	if len(profiles) == 0 || len(profiles) != len(truths) {
		return errors.New("rbx: profiles and truths must align and be non-empty")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-4
	}
	if cfg.UnderPenalty <= 0 {
		cfg.UnderPenalty = 6
	}
	if cfg.HighNDVColumns <= 0 {
		cfg.HighNDVColumns = 300
	}
	var xs [][]float64
	var ys []float64
	// Repeat the observed column so it is not drowned out by the
	// synthetic augmentation.
	repeat := cfg.HighNDVColumns/len(profiles) + 1
	for rep := 0; rep < repeat; rep++ {
		for i, p := range profiles {
			xs = append(xs, Features(p))
			ys = append(ys, target(truths[i], p.SampleNDV))
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for i := 0; i < cfg.HighNDVColumns; i++ {
		pop := 20000 + rng.Intn(80000)
		// High-NDV regime: at least 60% of rows are distinct.
		d := pop*3/5 + rng.Intn(pop*2/5)
		prof, trueNDV := subsampleUniform(rng, pop, d)
		xs = append(xs, Features(prof))
		ys = append(ys, target(trueNDV, prof.SampleNDV))
	}
	net := m.Net.Clone()
	if _, err := net.Train(xs, ys, nn.TrainConfig{
		Epochs:       cfg.Epochs,
		BatchSize:    64,
		LR:           cfg.LR,
		UnderPenalty: cfg.UnderPenalty,
		Seed:         cfg.Seed + 8,
	}); err != nil {
		return err
	}
	if m.Calibrated == nil {
		m.Calibrated = map[string]*nn.Network{}
	}
	m.Calibrated[column] = net
	return nil
}

func subsampleUniform(rng *rand.Rand, pop, d int) (sample.Profile, float64) {
	rate := 0.005 + rng.Float64()*0.05
	return sampleFreqs(rng, uniformFreqs(pop, d), rate, pop)
}

// SizeBytes reports the model footprint (base plus calibrations).
func (m *Model) SizeBytes() int64 {
	total := m.Net.SizeBytes()
	for _, net := range m.Calibrated {
		total += net.SizeBytes()
	}
	return total
}

// Validate checks network health (shape chain, finite weights).
func (m *Model) Validate() error {
	if m.Net == nil {
		return errors.New("rbx: missing base network")
	}
	if err := m.Net.Validate(); err != nil {
		return fmt.Errorf("rbx: base network: %w", err)
	}
	if m.Net.InputDim() != FeatureDim {
		return fmt.Errorf("rbx: network input %d, want %d", m.Net.InputDim(), FeatureDim)
	}
	for col, net := range m.Calibrated {
		if err := net.Validate(); err != nil {
			return fmt.Errorf("rbx: calibration for %s: %w", col, err)
		}
	}
	return nil
}

// Encode serializes the model with gob.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes and validates a model.
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
