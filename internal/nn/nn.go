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
	nz := make([]int32, 0, 128)
	for li := range n.Layers {
		l := &n.Layers[li]
		nz = inputs(nz, a, n.finite)
		z := make([]float64, l.Out)
		l.apply(z, a, nz)
		if li < len(n.Layers)-1 {
			relu(z, z)
		}
		a = z
	}
	return a
}

// inputs returns nz refilled with the indices of a that a layer reads:
// the non-zero ones when sparse, else all of them.
func inputs(nz []int32, a []float64, sparse bool) []int32 {
	nz = nz[:0]
	for i, v := range a {
		if v != 0 || !sparse {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

// apply writes the layer's pre-activation for input a into z: each
// output is its bias plus row[i]*a[i] summed in ascending order over the
// indices in nz. Four rows run at a time, each in its own accumulator.
func (l *Dense) apply(z, a []float64, nz []int32) {
	in := l.In
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		w := l.W[o*in : (o+4)*in]
		r0, r1, r2, r3 := w[:in], w[in:2*in], w[2*in:3*in], w[3*in:]
		s0, s1, s2, s3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
		for _, i := range nz {
			v := a[i]
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		z[o], z[o+1], z[o+2], z[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		s := l.B[o]
		r := l.W[o*in : (o+1)*in]
		for _, i := range nz {
			s += r[i] * a[i]
		}
		z[o] = s
	}
}

// relu writes max(z, 0) into dst, keeping a NaN.
func relu(dst, z []float64) {
	for o, v := range z {
		if v < 0 {
			v = 0
		}
		dst[o] = v
	}
}

// pass is one sample's forward state and backward scratch. acts[li] is
// layer li's input (acts[0] is the sample itself, acts[len(Layers)] the
// output), zs[li] its pre-activation, nz[li] the indices of acts[li] it
// read, and ds[li] the gradient with respect to acts[li] for li > 0.
// Train reuses one pass for all its samples; each Tape owns one.
type pass struct {
	acts, zs, ds [][]float64
	nz           [][]int32
	rows, live   []int32
	all          []int32 // 0, 1, 2, ... up to the widest layer
}

func newPass(n *Network) *pass {
	width := 0
	p := &pass{
		acts: append([][]float64{nil}, perLayer(n, fanOut)...),
		zs:   perLayer(n, fanOut),
		ds:   perLayer(n, fanIn),
		nz:   make([][]int32, len(n.Layers)),
	}
	for li, l := range n.Layers {
		p.nz[li] = make([]int32, 0, l.In)
		width = max(width, l.In, l.Out)
	}
	p.rows, p.live, p.all = make([]int32, 0, width), make([]int32, 0, width), make([]int32, width)
	for i := range p.all {
		p.all[i] = int32(i)
	}
	return p
}

// forward runs x through the network into p. With sparse set, which the
// caller may do only when every parameter is finite, each layer reads
// only its non-zero inputs; otherwise it reads them all.
func (n *Network) forward(p *pass, x []float64, sparse bool) {
	p.acts[0] = x
	for li := range n.Layers {
		l := &n.Layers[li]
		a, z := p.acts[li], p.zs[li]
		p.nz[li] = inputs(p.nz[li], a, sparse)
		l.apply(z, a, p.nz[li])
		if li < len(n.Layers)-1 {
			relu(p.acts[li+1], z)
		} else {
			copy(p.acts[li+1], z)
		}
	}
}

// grads mirrors the network's parameter layout.
type grads struct {
	W [][]float64
	B [][]float64
}

func newGrads(n *Network) *grads {
	return &grads{W: perLayer(n, weights), B: perLayer(n, biases)}
}

func weights(l Dense) int { return len(l.W) }
func biases(l Dense) int  { return len(l.B) }
func fanIn(l Dense) int   { return l.In }
func fanOut(l Dense) int  { return l.Out }

// perLayer returns one zeroed slice of size(layer) per layer, all carved
// from a single allocation.
func perLayer(n *Network, size func(Dense) int) [][]float64 {
	total := 0
	for _, l := range n.Layers {
		total += size(l)
	}
	buf := make([]float64, total)
	out := make([][]float64, len(n.Layers))
	for i, l := range n.Layers {
		k := size(l)
		out[i], buf = buf[:k:k], buf[k:]
	}
	return out
}

func (g *grads) zero() {
	for i := range g.W {
		clear(g.W[i])
		clear(g.B[i])
	}
}

// backward accumulates into g the parameter gradients of a loss whose
// gradient with respect to the output of p's forward pass is dOut. With
// input set it returns, freshly allocated, the gradient with respect to
// the network input (composite models such as MSCN backprop it through set
// pooling into shared encoders); otherwise it skips that layer and
// returns nil.
//
// A hidden layer's input gradient is computed only for the units whose
// pre-activation is not <= 0: the ReLU derivative zeroes the others.
func (n *Network) backward(p *pass, dOut []float64, g *grads, input bool) []float64 {
	delta := dOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := &n.Layers[li]
		rows := p.rows[:0]
		for o, d := range delta {
			if d != 0 {
				rows = append(rows, int32(o))
			}
		}
		l.weightGrads(g.W[li], g.B[li], delta, p.acts[li], rows, p.nz[li], p.all[:l.In])
		var prev []float64
		live := p.live[:0]
		switch {
		case li > 0:
			prev = p.ds[li]
			for i, z := range p.zs[li-1] {
				if z <= 0 {
					prev[i] = 0
				} else {
					live = append(live, int32(i))
				}
			}
		case input:
			prev, live = make([]float64, l.In), p.all[:l.In]
		default:
			return nil
		}
		l.inputGrads(prev, delta, rows, live)
		delta = prev
	}
	return delta
}

// weightGrads adds delta[o] to the bias gradient and delta[o]*a[i] to the
// weight gradient of each active row o, four rows at a time. A row with a
// finite delta reads only the inputs in nz, those its forward pass read:
// d*±0 is ±0 then, and adding ±0 leaves an accumulator that starts at +0,
// and so is never −0, unchanged. A non-finite delta reads every input.
func (l *Dense) weightGrads(gw, gb, delta, a []float64, rows, nz, all []int32) {
	in := l.In
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		o0, o1, o2, o3 := int(rows[k]), int(rows[k+1]), int(rows[k+2]), int(rows[k+3])
		d0, d1, d2, d3 := delta[o0], delta[o1], delta[o2], delta[o3]
		gb[o0] += d0
		gb[o1] += d1
		gb[o2] += d2
		gb[o3] += d3
		idx := nz
		if !finite(d0) || !finite(d1) || !finite(d2) || !finite(d3) {
			idx = all
		}
		g0, g1, g2, g3 := gw[o0*in:(o0+1)*in], gw[o1*in:(o1+1)*in], gw[o2*in:(o2+1)*in], gw[o3*in:(o3+1)*in]
		for _, i := range idx {
			v := a[i]
			g0[i] += d0 * v
			g1[i] += d1 * v
			g2[i] += d2 * v
			g3[i] += d3 * v
		}
	}
	for ; k < len(rows); k++ {
		o := int(rows[k])
		d := delta[o]
		gb[o] += d
		idx := nz
		if !finite(d) {
			idx = all
		}
		g := gw[o*in : (o+1)*in]
		for _, i := range idx {
			g[i] += d * a[i]
		}
	}
}

// inputGrads sets prev[i], for each i in live, to the sum from +0 of
// W[o][i]*delta[o] over the active rows o in ascending order, four rows
// at a time.
func (l *Dense) inputGrads(prev, delta []float64, rows, live []int32) {
	in := l.In
	for _, i := range live {
		prev[i] = 0
	}
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		o0, o1, o2, o3 := int(rows[k]), int(rows[k+1]), int(rows[k+2]), int(rows[k+3])
		d0, d1, d2, d3 := delta[o0], delta[o1], delta[o2], delta[o3]
		r0, r1, r2, r3 := l.W[o0*in:(o0+1)*in], l.W[o1*in:(o1+1)*in], l.W[o2*in:(o2+1)*in], l.W[o3*in:(o3+1)*in]
		for _, i := range live {
			p := prev[i]
			p += r0[i] * d0
			p += r1[i] * d1
			p += r2[i] * d2
			p += r3[i] * d3
			prev[i] = p
		}
	}
	for ; k < len(rows); k++ {
		o := int(rows[k])
		d := delta[o]
		r := l.W[o*in : (o+1)*in]
		for _, i := range live {
			prev[i] += r[i] * d
		}
	}
}

func finite(v float64) bool { return v-v == 0 }

// Tape is the cached forward state needed for a backward pass.
type Tape struct{ p *pass }

// Output returns the forward result recorded on the tape.
func (t *Tape) Output() []float64 { return t.p.acts[len(t.p.acts)-1] }

// ForwardTape runs a forward pass recording activations for BackwardTape.
func (n *Network) ForwardTape(x []float64) *Tape {
	p := newPass(n)
	n.forward(p, x, n.finite)
	return &Tape{p: p}
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
	return n.backward(t.p, dOut, g.g, true)
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
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		mW: perLayer(n, weights), vW: perLayer(n, weights),
		mB: perLayer(n, biases), vB: perLayer(n, biases)}
}

// Step applies one Adam update from accumulated gradients (already averaged
// over the batch).
func (a *Adam) Step(n *Network, g *grads) { a.step(n, g) }

// step is Step, reporting whether every parameter is finite after it.
func (a *Adam) step(n *Network, g *grads) bool {
	n.finite = false
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	var check float64 // p*0 is ±0 for a finite p and NaN otherwise
	upd := func(p, gr, m, v []float64) {
		for i := range p {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gr[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gr[i]*gr[i]
			p[i] -= a.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + a.Eps)
			check += p[i] * 0
		}
	}
	for li := range n.Layers {
		upd(n.Layers[li].W, g.W[li], a.mW[li], a.vW[li])
		upd(n.Layers[li].B, g.B[li], a.mB[li], a.vB[li])
	}
	return check == 0
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
	p := newPass(n)
	dOut := make([]float64, 1)
	// Whether every parameter is finite, which lets the passes skip zero
	// inputs. It is local: n.finite stays for Validate to set.
	sparse := n.validate() == nil
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
				n.forward(p, x[i], sparse)
				pred := p.acts[len(p.acts)-1][0]
				diff := pred - y[i]
				w := 1.0
				if diff < 0 {
					w = cfg.UnderPenalty
				}
				epochLoss += w * diff * diff
				dOut[0] = 2 * w * diff / float64(len(batch))
				n.backward(p, dOut, g, false)
			}
			if cfg.L2 > 0 {
				for li := range n.Layers {
					for i, w := range n.Layers[li].W {
						g.W[li][i] += cfg.L2 * w / float64(len(batch))
					}
				}
			}
			sparse = opt.step(n, g)
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
