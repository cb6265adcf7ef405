package bn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bytecard/internal/expr"
)

// randomDist draws a distribution over n outcomes, zeroing about a quarter
// of them (never all) so zero messages and zero beliefs occur.
func randomDist(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	var sum float64
	for i := range p {
		if n > 1 && rng.Intn(4) == 0 {
			continue
		}
		p[i] = rng.Float64() + 0.01
		sum += p[i]
	}
	if sum == 0 {
		p[rng.Intn(n)], sum = 1, 1
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// randomTree builds a valid tree BN of the given shape over 1–40-bin
// columns named c0, c1, …. Node labels are shuffled, so the root and the
// children order land anywhere in the column list. Even-numbered columns
// are categorical over 0..bins-1 (0/1 constraint weights), odd-numbered
// ones binned over [0, bins] (fractional range weights).
func randomTree(rng *rand.Rand, shape string) *Model {
	n := 1
	if shape != "single" {
		n = 2 + rng.Intn(11)
	}
	parent := make([]int, n)
	for i := range parent {
		switch {
		case i == 0:
			parent[i] = -1
		case shape == "chain":
			parent[i] = i - 1
		case shape == "star":
			parent[i] = 0
		default:
			parent[i] = rng.Intn(i)
		}
	}
	label := rng.Perm(n)
	m := &Model{Table: "rand", Rows: 1000, Cols: make([]ColumnModel, n), Parent: make([]int, n), CPT: make([][]float64, n)}
	for i := 0; i < n; i++ {
		bins := 1 + rng.Intn(40)
		cm := ColumnModel{Name: fmt.Sprintf("c%d", label[i])}
		if label[i]%2 == 0 {
			cm.Categorical = true
			for v := 0; v < bins; v++ {
				cm.Values = append(cm.Values, float64(v))
			}
		} else {
			for v := 0; v <= bins; v++ {
				cm.Bounds = append(cm.Bounds, float64(v))
			}
			for v := 0; v < bins; v++ {
				cm.BinNDV = append(cm.BinNDV, 1+float64(rng.Intn(4)))
			}
		}
		m.Cols[label[i]] = cm
		m.Parent[label[i]] = -1
		if parent[i] >= 0 {
			m.Parent[label[i]] = label[parent[i]]
		}
	}
	for i := range m.Cols {
		b := m.Cols[i].Bins()
		if m.Parent[i] < 0 {
			m.Prior = randomDist(rng, b)
			continue
		}
		pb := m.Cols[m.Parent[i]].Bins()
		for a := 0; a < pb; a++ {
			m.CPT[i] = append(m.CPT[i], randomDist(rng, b)...)
		}
	}
	return m
}

// randomConstraints draws evidence on up to three columns, sometimes two
// constraints on one column (buildWeights multiplies them), as points,
// ranges that zero most bins, or fractional ranges.
func randomConstraints(rng *rand.Rand, m *Model) []expr.Constraint {
	var out []expr.Constraint
	for k := rng.Intn(4); k > 0; k-- {
		cm := &m.Cols[rng.Intn(len(m.Cols))]
		hi := float64(cm.Bins())
		c := expr.NewConstraint(cm.Name)
		switch rng.Intn(3) {
		case 0:
			c.Add(expr.OpEq, float64(rng.Intn(cm.Bins())), true)
		case 1:
			c.Add(expr.OpGe, rng.Float64()*hi, true)
		default:
			c.Add(expr.OpLe, rng.Float64()*hi, true)
		}
		out = append(out, c)
		if rng.Intn(3) == 0 {
			again := expr.NewConstraint(cm.Name)
			again.Add(expr.OpLe, rng.Float64()*hi, true)
			out = append(out, again)
		}
	}
	return out
}

// compiledWeights is buildWeights without the pooled header.
func compiledWeights(m *Model, cons []expr.Constraint) [][]float64 {
	w := make([][]float64, len(m.Cols))
	for _, c := range cons {
		i := m.ColIndex(c.Col)
		v := m.Cols[i].Weights(c)
		if w[i] == nil {
			w[i] = v
			continue
		}
		for b := range v {
			w[i][b] *= v[b]
		}
	}
	return w
}

// refMarginals is the full up-down pass as it ran before the evidence-free
// pass was cached: every λ recomputed bottom-up, every child message
// recomputed inline wherever it is read, fresh buffers per call. It
// returns P(evidence) and the node beliefs.
func refMarginals(c *Context, weights [][]float64) (float64, [][]float64) {
	n := len(c.bins)
	lambda := make([][]float64, n)
	message := func(ch, b int) float64 {
		cb := c.bins[ch]
		var msg float64
		for j, p := range c.m.CPT[ch][b*cb : (b+1)*cb] {
			msg += p * lambda[ch][j]
		}
		return msg
	}
	for ti := n - 1; ti >= 0; ti-- {
		i := c.topo[ti]
		l := make([]float64, c.bins[i])
		for b := range l {
			l[b] = 1
			if weights[i] != nil {
				l[b] = weights[i][b]
			}
		}
		for _, ch := range c.children[i] {
			for b := range l {
				if l[b] != 0 {
					l[b] *= message(ch, b)
				}
			}
		}
		lambda[i] = l
	}
	root := c.topo[0]
	var pe float64
	for b, prior := range c.m.Prior {
		pe += prior * lambda[root][b]
	}
	pi := make([][]float64, n)
	belief := make([][]float64, n)
	pi[root] = append([]float64(nil), c.m.Prior...)
	for _, i := range c.topo {
		nb := c.bins[i]
		belief[i] = make([]float64, nb)
		for b := range belief[i] {
			belief[i][b] = pi[i][b] * lambda[i][b]
		}
		for _, ch := range c.children[i] {
			excl := make([]float64, nb)
			for b := range excl {
				excl[b] = pi[i][b]
				if weights[i] != nil {
					excl[b] *= weights[i][b]
				}
			}
			for _, other := range c.children[i] {
				if other == ch {
					continue
				}
				for b := range excl {
					if excl[b] != 0 {
						excl[b] *= message(other, b)
					}
				}
			}
			cb := c.bins[ch]
			pi[ch] = make([]float64, cb)
			for b := range excl {
				if excl[b] == 0 {
					continue
				}
				for j, p := range c.m.CPT[ch][b*cb : (b+1)*cb] {
					contrib := excl[b] * p
					pi[ch][j] += contrib
				}
			}
		}
	}
	return pe, belief
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInferenceProperties pins every inference entry point bit for bit on
// random trees (single nodes, chains, stars, mixed fan-out; 1–40 bins):
// Marginals against the uncached reference pass, JointWithColumns for
// root, inner and leaf targets against Marginals' beliefs, and Prob and
// SelectivityConj against ProbNoScratch — under no evidence, zero-weight
// bins, repeated-column constraints and soft weights.
func TestInferenceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		shape := [...]string{"single", "chain", "star", "mixed"}[trial%4]
		m := randomTree(rng, shape)
		ctx, err := m.NewContext()
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, shape, err)
		}
		for variant := 0; variant < 6; variant++ {
			var cons []expr.Constraint
			if variant > 0 {
				cons = randomConstraints(rng, m)
			}
			where := fmt.Sprintf("trial %d (%s, %d nodes) variant %d %v", trial, shape, len(m.Cols), variant, cons)
			weights := compiledWeights(m, cons)

			refPE, refBelief := refMarginals(ctx, weights)
			pe, belief, _ := ctx.Marginals(weights)
			if math.Float64bits(pe) != math.Float64bits(refPE) {
				t.Fatalf("%s: Marginals P(e)=%v, reference %v", where, pe, refPE)
			}
			for i := range belief {
				if !sameBits(belief[i], refBelief[i]) {
					t.Fatalf("%s: Marginals belief[%d]=%v, reference %v", where, i, belief[i], refBelief[i])
				}
			}

			want := ctx.ProbNoScratch(weights)
			if got := ctx.Prob(weights); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Prob=%v, ProbNoScratch=%v", where, got, want)
			}
			if got, err := ctx.SelectivityConj(cons); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: SelectivityConj=%v (%v), ProbNoScratch=%v", where, got, err, want)
			}

			// Every node alone (root, inner nodes, leaves), then a random
			// multi-target set with a repeat.
			targets := [][]int{}
			for i := range m.Cols {
				targets = append(targets, []int{i})
			}
			multi := rng.Perm(len(m.Cols))[:1+rng.Intn(len(m.Cols))]
			targets = append(targets, append(multi, multi[0]))
			for _, tg := range targets {
				cols := make([]string, len(tg))
				for k, i := range tg {
					cols[k] = m.Cols[i].Name
				}
				vecs, err := ctx.JointWithColumns(cons, cols)
				if err != nil {
					t.Fatalf("%s: JointWithColumns(%v): %v", where, cols, err)
				}
				for k, i := range tg {
					if !sameBits(vecs[k], belief[i]) {
						t.Fatalf("%s: JointWithColumns %s=%v, Marginals belief %v", where, cols[k], vecs[k], belief[i])
					}
				}
			}
		}
		// Soft evidence straight into Prob, zero bins included.
		for variant := 0; variant < 4; variant++ {
			weights := make([][]float64, len(m.Cols))
			for i := range weights {
				if rng.Intn(3) != 0 {
					continue
				}
				weights[i] = make([]float64, m.Cols[i].Bins())
				for b := range weights[i] {
					if rng.Intn(3) != 0 {
						weights[i][b] = rng.Float64()
					}
				}
			}
			if got, want := ctx.Prob(weights), ctx.ProbNoScratch(weights); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d soft variant %d: Prob=%v, ProbNoScratch=%v", trial, variant, got, want)
			}
		}
	}
}
