package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNetworkShape(t *testing.T) {
	n := NewNetwork(1, 4, 8, 8, 1)
	if n.InputDim() != 4 || n.OutputDim() != 1 {
		t.Errorf("dims = %d/%d", n.InputDim(), n.OutputDim())
	}
	want := 4*8 + 8 + 8*8 + 8 + 8*1 + 1
	if n.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), want)
	}
	if n.SizeBytes() != int64(want)*8 {
		t.Errorf("SizeBytes = %d", n.SizeBytes())
	}
}

func TestNewNetworkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for single size")
		}
	}()
	NewNetwork(1, 4)
}

func TestForwardInputWidthPanics(t *testing.T) {
	n := NewNetwork(1, 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad input width")
		}
	}()
	n.Forward([]float64{1, 2})
}

func TestForwardDeterministic(t *testing.T) {
	a := NewNetwork(7, 3, 16, 1)
	b := NewNetwork(7, 3, 16, 1)
	x := []float64{0.5, -1, 2}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Error("same seed must give same outputs")
	}
}

// TestGradientCheck verifies backprop against numerical differentiation.
func TestGradientCheck(t *testing.T) {
	n := NewNetwork(3, 4, 6, 5, 1)
	x := []float64{0.3, -0.7, 1.2, 0.1}
	y := 0.8
	loss := func() float64 {
		d := n.Forward(x)[0] - y
		return d * d
	}
	p := newPass(n)
	n.forward(p, x, false)
	g := newGrads(n)
	pred := p.acts[len(p.acts)-1][0]
	n.backward(p, []float64{2 * (pred - y)}, g, false)

	const eps = 1e-6
	check := func(p []float64, gr []float64, label string) {
		for _, i := range []int{0, len(p) / 2, len(p) - 1} {
			orig := p[i]
			p[i] = orig + eps
			up := loss()
			p[i] = orig - eps
			down := loss()
			p[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-gr[i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", label, i, gr[i], num)
			}
		}
	}
	for li := range n.Layers {
		check(n.Layers[li].W, g.W[li], "W")
		check(n.Layers[li].B, g.B[li], "B")
	}
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x = append(x, []float64{a, b})
		y = append(y, 2*a-3*b+0.5)
	}
	n := NewNetwork(3, 2, 16, 16, 1)
	losses, err := n.Train(x, y, TrainConfig{Epochs: 60, BatchSize: 32, LR: 5e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] > 0.01 {
		t.Errorf("final loss %g too high", losses[len(losses)-1])
	}
	if losses[0] < losses[len(losses)-1] {
		t.Error("loss must decrease")
	}
	got := n.Forward([]float64{0.5, -0.5})[0]
	want := 2*0.5 - 3*(-0.5) + 0.5
	if math.Abs(got-want) > 0.3 {
		t.Errorf("prediction %g, want ~%g", got, want)
	}
}

func TestTrainLearnsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 800; i++ {
		a := rng.Float64()*4 - 2
		x = append(x, []float64{a})
		y = append(y, a*a)
	}
	n := NewNetwork(5, 1, 32, 32, 1)
	losses, err := n.Train(x, y, TrainConfig{Epochs: 120, BatchSize: 32, LR: 5e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] > 0.05 {
		t.Errorf("final loss %g too high for x^2", losses[len(losses)-1])
	}
}

func TestUnderPenaltyBiasesUpward(t *testing.T) {
	// With a heavy underestimation penalty the model should systematically
	// land above the noisy targets' mean.
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := rng.Float64()
		x = append(x, []float64{a})
		y = append(y, 1+rng.NormFloat64()*0.5) // mean 1, noisy
	}
	fit := func(penalty float64) float64 {
		n := NewNetwork(6, 1, 8, 1)
		if _, err := n.Train(x, y, TrainConfig{Epochs: 80, BatchSize: 32, LR: 1e-2, UnderPenalty: penalty, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, xi := range x {
			sum += n.Forward(xi)[0]
		}
		return sum / float64(len(x))
	}
	plain := fit(1)
	biased := fit(8)
	if biased <= plain+0.05 {
		t.Errorf("underestimation penalty must push predictions up: plain %g, penalized %g", plain, biased)
	}
}

func TestTrainErrors(t *testing.T) {
	n := NewNetwork(1, 2, 1)
	if _, err := n.Train(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training set must fail")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []float64{1, 2}, TrainConfig{}); err == nil {
		t.Error("mismatched shapes must fail")
	}
	multi := NewNetwork(1, 2, 3)
	if _, err := multi.Train([][]float64{{1, 2}}, []float64{1}, TrainConfig{}); err == nil {
		t.Error("non-scalar output must fail")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	n := NewNetwork(8, 5, 12, 7, 1)
	data, err := n.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 0.5, 3, -0.1}
	if math.Abs(n.Forward(x)[0]-m.Forward(x)[0]) > 1e-12 {
		t.Error("decoded network must predict identically")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob")); err == nil {
		t.Error("garbage must fail to decode")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	n := NewNetwork(9, 3, 4, 1)
	if err := n.Validate(); err != nil {
		t.Fatalf("fresh network invalid: %v", err)
	}
	n.Layers[0].W[0] = math.NaN()
	if err := n.Validate(); err == nil {
		t.Error("NaN weight must fail validation")
	}
	n = NewNetwork(9, 3, 4, 1)
	n.Layers[0].W = n.Layers[0].W[:3]
	if err := n.Validate(); err == nil {
		t.Error("truncated weights must fail validation")
	}
	n = NewNetwork(9, 3, 4, 1)
	n.Layers[1].In = 7
	if err := n.Validate(); err == nil {
		t.Error("shape chain mismatch must fail validation")
	}
	empty := &Network{}
	if err := empty.Validate(); err == nil {
		t.Error("empty network must fail validation")
	}
}

func TestCloneIndependence(t *testing.T) {
	n := NewNetwork(10, 2, 4, 1)
	c := n.Clone()
	n.Layers[0].W[0] = 999
	if c.Layers[0].W[0] == 999 {
		t.Error("clone must not share weight storage")
	}
}

func TestLossMatchesTrainObjective(t *testing.T) {
	n := NewNetwork(11, 1, 4, 1)
	x := [][]float64{{0.5}, {1.0}}
	y := []float64{10, 10} // network starts near 0 → underestimates
	plain := n.Loss(x, y, 1)
	heavy := n.Loss(x, y, 5)
	if heavy <= plain {
		t.Error("underestimation penalty must increase loss when predicting low")
	}
}

// denseForward is Forward summing every term of every layer.
func denseForward(n *Network, x []float64) []float64 {
	a := x
	for li, l := range n.Layers {
		z := make([]float64, l.Out)
		for o := range z {
			s := l.B[o]
			for i, v := range a {
				s += l.W[o*l.In+i] * v
			}
			if li < len(n.Layers)-1 && s < 0 {
				s = 0
			}
			z[o] = s
		}
		a = z
	}
	return a
}

// TestForwardSparseMatchesDense: on validated networks with random biases,
// skipping zero inputs gives bit-identical outputs to summing every term,
// over inputs that are mostly (signed) zeros, fully zero or fully dense.
// The sums may differ only in the sign of an exact zero.
func TestForwardSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 40; iter++ {
		n := NewNetwork(int64(iter), 103, 128, 64, 32, 1+rng.Intn(3))
		for li := range n.Layers {
			for o := range n.Layers[li].B {
				n.Layers[li].B[o] = rng.NormFloat64() * 0.1
			}
		}
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			x := make([]float64, n.InputDim())
			density := []float64{0, 0.05, 0.3, 1}[k%4]
			for i := range x {
				switch {
				case rng.Float64() < density:
					x[i] = math.Log1p(rng.ExpFloat64() * 50)
				case rng.Intn(2) == 0:
					x[i] = math.Copysign(0, -1)
				}
			}
			got, want := n.Forward(x), denseForward(n, x)
			for o := range want {
				if math.Float64bits(got[o]) != math.Float64bits(want[o]) && !(got[o] == 0 && want[o] == 0) {
					t.Fatalf("iter %d input %d output %d: sparse %v, dense %v", iter, k, o, got[o], want[o])
				}
			}
		}
	}
}

// TestForwardDenseUntilValidated: a network that has not passed Validate,
// or has trained since, sums every term — so an infinite weight against a
// zero input still yields NaN, as the dense product does.
func TestForwardDenseUntilValidated(t *testing.T) {
	n := NewNetwork(4, 2, 3, 1)
	n.Layers[0].W[1] = math.Inf(1)
	if out := n.Forward([]float64{1, 0}); !math.IsNaN(out[0]) {
		t.Errorf("unvalidated network with an infinite weight: %v, want NaN", out[0])
	}
	if err := n.Validate(); err == nil || n.finite {
		t.Fatalf("Validate passed (%v) or left the network marked finite", err)
	}
	n = NewNetwork(4, 2, 3, 1)
	if err := n.Validate(); err != nil || !n.finite || !n.Clone().finite {
		t.Fatalf("validated network or its clone not marked finite (%v)", err)
	}
	if _, err := n.Train([][]float64{{1, 0}}, []float64{1}, TrainConfig{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	if n.finite {
		t.Error("training left the network marked finite")
	}
}
