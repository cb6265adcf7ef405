package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The reference below is the dense training path the sparse, blocked
// kernels replaced, kept verbatim in its arithmetic: every layer sums
// every input, every active row's gradient reads every input, and every
// layer's input gradient is computed and then masked. Train, ForwardTape
// and BackwardTape must match it bit for bit.

func refForwardCache(n *Network, x []float64) (acts [][]float64, zs [][]float64) {
	acts = append(acts, x)
	a := x
	for li := range n.Layers {
		l := &n.Layers[li]
		z := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			s := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, v := range a {
				s += row[i] * v
			}
			z[o] = s
		}
		zs = append(zs, z)
		out := make([]float64, l.Out)
		copy(out, z)
		if li < len(n.Layers)-1 {
			for o := range out {
				if out[o] < 0 {
					out[o] = 0
				}
			}
		}
		acts = append(acts, out)
		a = out
	}
	return acts, zs
}

func refBackward(n *Network, acts, zs [][]float64, dOut []float64, g *grads) []float64 {
	delta := dOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := &n.Layers[li]
		aPrev := acts[li]
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			g.B[li][o] += d
			row := g.W[li][o*l.In : (o+1)*l.In]
			for i, v := range aPrev {
				row[i] += d * v
			}
		}
		prev := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			row := l.W[o*l.In : (o+1)*l.In]
			for i := range prev {
				prev[i] += row[i] * d
			}
		}
		if li > 0 {
			zPrev := zs[li-1]
			for i := range prev {
				if zPrev[i] <= 0 {
					prev[i] = 0
				}
			}
		}
		delta = prev
	}
	return delta
}

func refAdamStep(a *Adam, n *Network, g *grads) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	upd := func(p, gr, m, v []float64) {
		for i := range p {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gr[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gr[i]*gr[i]
			p[i] -= a.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + a.Eps)
		}
	}
	for li := range n.Layers {
		upd(n.Layers[li].W, g.W[li], a.mW[li], a.vW[li])
		upd(n.Layers[li].B, g.B[li], a.mB[li], a.vB[li])
	}
}

// refTrain is Train's loop over the reference kernels; cfg is already
// filled in.
func refTrain(n *Network, x [][]float64, y []float64, cfg TrainConfig) []float64 {
	opt := NewAdam(n, cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	g := newGrads(n)
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			batch := idx[start:end]
			g.zero()
			for _, i := range batch {
				acts, zs := refForwardCache(n, x[i])
				diff := acts[len(acts)-1][0] - y[i]
				w := 1.0
				if diff < 0 {
					w = cfg.UnderPenalty
				}
				epochLoss += w * diff * diff
				refBackward(n, acts, zs, []float64{2 * w * diff / float64(len(batch))}, g)
			}
			if cfg.L2 > 0 {
				for li := range n.Layers {
					for i, w := range n.Layers[li].W {
						g.W[li][i] += cfg.L2 * w / float64(len(batch))
					}
				}
			}
			refAdamStep(opt, n, g)
		}
		losses = append(losses, epochLoss/float64(len(x)))
	}
	return losses
}

// sparseRows draws samples shaped like RBX features: log1p counts where
// each entry is non-zero with the given density, a few (signed) zeros and
// dense tails.
func sparseRows(rng *rand.Rand, rows, width int, density float64) [][]float64 {
	x := make([][]float64, rows)
	for r := range x {
		x[r] = make([]float64, width)
		for i := range x[r] {
			switch {
			case rng.Float64() < density:
				x[r][i] = math.Log1p(rng.ExpFloat64() * 50)
			case rng.Intn(8) == 0:
				x[r][i] = math.Copysign(0, -1)
			}
		}
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameNetworks(t *testing.T, got, want *Network) {
	t.Helper()
	for li := range want.Layers {
		sameBits(t, "layer W", got.Layers[li].W, want.Layers[li].W)
		sameBits(t, "layer B", got.Layers[li].B, want.Layers[li].B)
	}
}

// TestTrainMatchesReference: every trained weight, bias and epoch loss is
// bit-identical to the dense reference, across the RBX shape, widths that
// are not multiples of four, ragged last batches, the underestimation
// penalty, weight decay, non-finite inputs (which drive the network
// non-finite mid-training) and a network that starts with an infinite
// weight, which must train on the dense path throughout.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rbxShape := []int{103, 128, 128, 64, 64, 32, 16, 1}
	cases := []struct {
		name    string
		sizes   []int
		rows    int
		density float64
		cfg     TrainConfig
		corrupt func(n *Network, x [][]float64)
	}{
		{name: "rbx", sizes: rbxShape, rows: 130, density: 0.3, cfg: TrainConfig{Epochs: 3, BatchSize: 64, LR: 1e-3, Seed: 12}},
		{name: "rbx-penalty-l2", sizes: rbxShape, rows: 97, density: 0.15, cfg: TrainConfig{Epochs: 3, BatchSize: 20, LR: 2e-3, UnderPenalty: 6, L2: 1e-3, Seed: 8}},
		{name: "odd-widths", sizes: []int{13, 9, 7, 5, 3, 1}, rows: 50, density: 0.4, cfg: TrainConfig{Epochs: 6, BatchSize: 16, LR: 5e-3, UnderPenalty: 2, Seed: 3}},
		{name: "dense-inputs", sizes: []int{6, 17, 1}, rows: 33, density: 1, cfg: TrainConfig{Epochs: 5, BatchSize: 7, LR: 1e-2, L2: 0.01, Seed: 5}},
		{name: "all-zero-inputs", sizes: []int{8, 12, 4, 1}, rows: 10, density: 0, cfg: TrainConfig{Epochs: 4, BatchSize: 3, LR: 1e-2, Seed: 6}},
		{name: "infinite-input", sizes: []int{10, 11, 6, 1}, rows: 40, density: 0.5, cfg: TrainConfig{Epochs: 3, BatchSize: 8, LR: 1e-3, Seed: 9},
			corrupt: func(_ *Network, x [][]float64) { x[17][3], x[21][4] = math.Inf(1), math.Inf(-1) }},
		{name: "nan-input", sizes: []int{10, 11, 6, 1}, rows: 40, density: 0.5, cfg: TrainConfig{Epochs: 3, BatchSize: 8, LR: 1e-3, Seed: 10},
			corrupt: func(_ *Network, x [][]float64) { x[25][2] = math.NaN() }},
		{name: "infinite-weight", sizes: []int{10, 11, 6, 1}, rows: 40, density: 0.5, cfg: TrainConfig{Epochs: 3, BatchSize: 8, LR: 1e-3, Seed: 11},
			corrupt: func(n *Network, x [][]float64) {
				// Only a dense pass multiplies the infinite weight by its
				// always-zero input, turning every output NaN.
				n.Layers[0].W[3] = math.Inf(1)
				for _, r := range x {
					r[3] = 0
				}
			}},
	}
	for k, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := sparseRows(rng, c.rows, c.sizes[0], c.density)
			y := make([]float64, c.rows)
			for i := range y {
				y[i] = rng.NormFloat64() * 2
			}
			n := NewNetwork(int64(40+k), c.sizes...)
			for li := range n.Layers {
				for o := range n.Layers[li].B {
					n.Layers[li].B[o] = rng.NormFloat64() * 0.05
				}
			}
			if c.corrupt != nil {
				c.corrupt(n, x)
			}
			ref := n.Clone()
			cfg := c.cfg
			if cfg.UnderPenalty == 0 {
				cfg.UnderPenalty = 1
			}
			want := refTrain(ref, x, y, cfg)
			got, err := n.Train(x, y, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "losses", got, want)
			sameNetworks(t, n, ref)
		})
	}
}

// TestBackwardTapeMatchesReference: accumulated parameter gradients and
// the returned input gradient match the dense reference bit for bit, for
// taped passes on unvalidated (dense) and validated (sparse) networks and
// output gradients holding zeros and non-finite values — the way MSCN
// backprops pooled gradients into its set encoders.
func TestBackwardTapeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 24; iter++ {
		n := NewNetwork(int64(iter), 5+rng.Intn(40), 1+rng.Intn(33), 1+rng.Intn(20), 1+rng.Intn(9))
		if iter%2 == 1 {
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		g, ref := NewGrads(n), newGrads(n)
		for k := 0; k < 5; k++ {
			x := sparseRows(rng, 1, n.InputDim(), []float64{0.1, 0.5, 1}[k%3])[0]
			dOut := make([]float64, n.OutputDim())
			for o := range dOut {
				if rng.Intn(3) > 0 {
					dOut[o] = rng.NormFloat64()
				}
			}
			if iter%6 == 5 && k == 4 {
				dOut[0] = math.Inf(1)
			}
			tape := n.ForwardTape(x)
			acts, zs := refForwardCache(n, x)
			if n.finite {
				for o, v := range acts[len(acts)-1] {
					if got := tape.Output()[o]; math.Float64bits(got) != math.Float64bits(v) && !(got == 0 && v == 0) {
						t.Fatalf("iter %d sample %d output %d: taped %v, reference %v", iter, k, o, got, v)
					}
				}
			} else {
				sameBits(t, "tape output", tape.Output(), acts[len(acts)-1])
			}
			sameBits(t, "input gradient", n.BackwardTape(tape, dOut, g), refBackward(n, acts, zs, dOut, ref))
		}
		for li := range n.Layers {
			sameBits(t, "weight gradient", g.g.W[li], ref.W[li])
			sameBits(t, "bias gradient", g.g.B[li], ref.B[li])
		}
	}
}

// TestTrainAllocs: Train reuses one set of pass buffers, so its
// allocation count does not grow with the sample count. It trains two
// epochs: one epoch's 8-byte loss slice would go to the runtime's tiny
// allocator, which packs two such objects per counted malloc.
func TestTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	rng := rand.New(rand.NewSource(33))
	n := NewNetwork(1, 103, 128, 128, 64, 64, 32, 16, 1)
	cfg := TrainConfig{Epochs: 2, BatchSize: 64, Seed: 1}
	train := map[int]func(){}
	for _, rows := range []int{64, 1024} {
		x, y := sparseRows(rng, rows, 103, 0.3), make([]float64, rows)
		train[rows] = func() {
			if _, err := n.Train(x, y, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let the runtime's first garbage collections, which allocate for
	// themselves, happen before counting.
	for i := 0; i < 5; i++ {
		train[64]()
		train[1024]()
	}
	if small, large := testing.AllocsPerRun(10, train[64]), testing.AllocsPerRun(10, train[1024]); small != large {
		t.Errorf("Train allocates %v times over 64 samples but %v over 1024", small, large)
	}
}

// TestForwardAllocs: Forward allocates one output slice per layer and
// nothing else, validated or not.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; allocation counts are only meaningful without -race")
	}
	n := NewNetwork(1, 103, 128, 128, 64, 64, 32, 16, 1)
	x := sparseRows(rand.New(rand.NewSource(34)), 1, 103, 0.3)[0]
	for _, validated := range []bool{false, true} {
		if validated {
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() { n.Forward(x) }); got > float64(len(n.Layers)) {
			t.Errorf("validated %v: Forward allocates %v times, want at most %d", validated, got, len(n.Layers))
		}
	}
}

// TestAdamStepReportsFinite: the step Train reads its sparse flag from
// reports a parameter that became non-finite.
func TestAdamStepReportsFinite(t *testing.T) {
	n := NewNetwork(1, 3, 4, 1)
	opt, g := NewAdam(n, 1e-3), newGrads(n)
	g.W[1][2] = 1
	if !opt.step(n, g) {
		t.Fatal("finite step reported non-finite")
	}
	g.B[0][3] = math.NaN()
	if opt.step(n, g) {
		t.Fatal("step to a NaN bias reported finite")
	}
}
