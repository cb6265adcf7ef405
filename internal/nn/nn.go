// Package nn is a small, dependency-free neural-network library: dense
// layers with ReLU activations, Adam optimization, mean-squared and
// asymmetric (underestimation-penalizing) losses, and gob serialization.
// It is the training/inference substrate for the RBX NDV estimator and the
// MSCN baseline; the paper's Python/C++ split collapses here into one Go
// implementation whose inference path is allocation-light and usable from
// concurrent query threads (networks are immutable after training).
package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully connected layer; weights are row-major Out×In.
type Dense struct {
	In, Out int
	W       []float64
	B       []float64
}

// Network is a multilayer perceptron: ReLU between layers, linear output.
type Network struct {
	Layers []Dense
	// finite is set by a Validate that passed and cleared by every Adam
	// step: only a network whose weights are all finite may skip zero
	// inputs in Forward.
	finite bool
}

// NewNetwork builds a network with the given layer sizes (input, hidden...,
// output) using He initialization from the seed.
func NewNetwork(seed int64, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		l := Dense{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
		std := math.Sqrt(2 / float64(in))
		for j := range l.W {
			l.W[j] = rng.NormFloat64() * std
		}
		n.Layers = append(n.Layers, l)
	}
	return n
}

// InputDim returns the expected input width.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim returns the output width.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// NumParams counts trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// SizeBytes reports the serialized weight footprint (8 bytes/parameter).
func (n *Network) SizeBytes() int64 { return int64(n.NumParams()) * 8 }

// Clone deep-copies the network.
func (n *Network) Clone() *Network {
	c := &Network{Layers: make([]Dense, len(n.Layers))}
	for i, l := range n.Layers {
		c.Layers[i] = Dense{In: l.In, Out: l.Out, W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...)}
	}
	c.finite = n.finite
	return c
}

// Forward runs inference. The returned slice is freshly allocated.
//
// Each layer sums row[i]*a[i] in ascending i over only the inputs that
// are not zero, once the network has passed Validate. With a finite
// weight a skipped term is ±0, so skipping it can change at most the sign
// of an exact-zero sum; a network not known to be finite sums every term.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.InputDim() {
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), n.InputDim()))
	}
	a := x
	dense := !n.finite
	nz := make([]int32, 0, 128)
	for li := range n.Layers {
		l := &n.Layers[li]
		nz = nz[:0]
		for i, v := range a {
			if v != 0 || dense {
				nz = append(nz, int32(i))
			}
		}
		z := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			s := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for _, i := range nz {
				s += row[i] * a[i]
			}
			z[o] = s
		}
		if li < len(n.Layers)-1 {
			for o := range z {
				if z[o] < 0 {
					z[o] = 0
				}
			}
		}
		a = z
	}
	return a
}

// forwardCache runs a forward pass keeping pre-activations for backprop.
func (n *Network) forwardCache(x []float64) (acts [][]float64, zs [][]float64) {
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

// grads mirrors the network's parameter layout.
type grads struct {
	W [][]float64
	B [][]float64
}

func newGrads(n *Network) *grads {
	g := &grads{W: make([][]float64, len(n.Layers)), B: make([][]float64, len(n.Layers))}
	for i, l := range n.Layers {
		g.W[i] = make([]float64, len(l.W))
		g.B[i] = make([]float64, len(l.B))
	}
	return g
}

func (g *grads) zero() {
	for i := range g.W {
		clearF(g.W[i])
		clearF(g.B[i])
	}
}

func clearF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// backward accumulates gradients of loss dOut (dL/dŷ) into g and returns
// the gradient with respect to the network input (used by composite models
// such as MSCN that backprop through set pooling into shared encoders).
func (n *Network) backward(acts, zs [][]float64, dOut []float64, g *grads) []float64 {
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
			// ReLU derivative of the previous layer's pre-activation.
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

// Tape is the cached forward state needed for a backward pass.
type Tape struct {
	acts, zs [][]float64
}

// Output returns the forward result recorded on the tape.
func (t *Tape) Output() []float64 { return t.acts[len(t.acts)-1] }

// ForwardTape runs a forward pass recording activations for BackwardTape.
func (n *Network) ForwardTape(x []float64) *Tape {
	acts, zs := n.forwardCache(x)
	return &Tape{acts: acts, zs: zs}
}

// Grads accumulates parameter gradients across one or more BackwardTape
// calls; apply them with Adam.StepGrads.
type Grads struct{ g *grads }

// NewGrads allocates a gradient buffer shaped like n.
func NewGrads(n *Network) *Grads { return &Grads{g: newGrads(n)} }

// Zero clears the accumulated gradients.
func (g *Grads) Zero() { g.g.zero() }

// BackwardTape backpropagates dOut (dL/dŷ) through the taped pass,
// accumulating parameter gradients into g and returning dL/dinput.
func (n *Network) BackwardTape(t *Tape, dOut []float64, g *Grads) []float64 {
	return n.backward(t.acts, t.zs, dOut, g.g)
}

// StepGrads applies one Adam update from externally accumulated gradients.
func (a *Adam) StepGrads(n *Network, g *Grads) { a.Step(n, g.g) }

// Adam is the Adam optimizer state over a network's parameters.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	t            int
	mW, vW       [][]float64
	mB, vB       [][]float64
}

// NewAdam creates an optimizer with standard defaults and the given rate.
func NewAdam(n *Network, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for _, l := range n.Layers {
		a.mW = append(a.mW, make([]float64, len(l.W)))
		a.vW = append(a.vW, make([]float64, len(l.W)))
		a.mB = append(a.mB, make([]float64, len(l.B)))
		a.vB = append(a.vB, make([]float64, len(l.B)))
	}
	return a
}

// Step applies one Adam update from accumulated gradients (already averaged
// over the batch).
func (a *Adam) Step(n *Network, g *grads) {
	n.finite = false
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

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// UnderPenalty multiplies the squared error when the network
	// underestimates (prediction below target); 1 recovers plain MSE.
	// Values above 1 implement RBX's calibration objective.
	UnderPenalty float64
	// L2 is optional weight decay.
	L2 float64
	// Seed shuffles batches deterministically.
	Seed int64
}

// Train fits scalar targets with mini-batch Adam, returning the mean
// training loss per epoch.
func (n *Network) Train(x [][]float64, y []float64, cfg TrainConfig) ([]float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("nn: bad training set shape")
	}
	if n.OutputDim() != 1 {
		return nil, errors.New("nn: Train requires a scalar output network")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.UnderPenalty <= 0 {
		cfg.UnderPenalty = 1
	}
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
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			g.zero()
			for _, i := range batch {
				acts, zs := n.forwardCache(x[i])
				pred := acts[len(acts)-1][0]
				diff := pred - y[i]
				w := 1.0
				if diff < 0 {
					w = cfg.UnderPenalty
				}
				epochLoss += w * diff * diff
				scale := 2 * w * diff / float64(len(batch))
				n.backward(acts, zs, []float64{scale}, g)
			}
			if cfg.L2 > 0 {
				for li := range n.Layers {
					for i, w := range n.Layers[li].W {
						g.W[li][i] += cfg.L2 * w / float64(len(batch))
					}
				}
			}
			opt.Step(n, g)
		}
		losses = append(losses, epochLoss/float64(len(x)))
	}
	return losses, nil
}

// Loss computes the configured loss over a dataset without training.
func (n *Network) Loss(x [][]float64, y []float64, underPenalty float64) float64 {
	if underPenalty <= 0 {
		underPenalty = 1
	}
	var total float64
	for i := range x {
		diff := n.Forward(x[i])[0] - y[i]
		w := 1.0
		if diff < 0 {
			w = underPenalty
		}
		total += w * diff * diff
	}
	return total / float64(len(x))
}

// Encode serializes the network with gob.
func (n *Network) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes a network and validates its shape.
func Decode(data []byte) (*Network, error) {
	var n Network
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&n); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// Validate checks structural consistency and weight health (shape chaining,
// no NaN/Inf) — the health-detector hook the Model Validator calls before a
// network reaches query threads. A network that passes runs Forward's
// sparse sums until its next training step.
func (n *Network) Validate() error {
	err := n.validate()
	// Written only on change: re-validating a network in use only reads.
	if ok := err == nil; n.finite != ok {
		n.finite = ok
	}
	return err
}

func (n *Network) validate() error {
	if len(n.Layers) == 0 {
		return errors.New("nn: empty network")
	}
	for i, l := range n.Layers {
		if l.In <= 0 || l.Out <= 0 || len(l.W) != l.In*l.Out || len(l.B) != l.Out {
			return fmt.Errorf("nn: layer %d malformed (%d->%d, %d weights, %d biases)", i, l.In, l.Out, len(l.W), len(l.B))
		}
		if i > 0 && n.Layers[i-1].Out != l.In {
			return fmt.Errorf("nn: layer %d input %d != previous output %d", i, l.In, n.Layers[i-1].Out)
		}
		for _, w := range l.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("nn: layer %d contains non-finite weight", i)
			}
		}
		for _, b := range l.B {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return fmt.Errorf("nn: layer %d contains non-finite bias", i)
			}
		}
	}
	return nil
}
