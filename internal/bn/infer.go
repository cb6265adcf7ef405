package bn

import (
	"errors"
	"fmt"
	"sync"

	"bytecard/internal/expr"
)

// Context is the immutable inference state built by the paper's
// initContext step: nodes laid out in a topological array with flattened
// CPT access and precomputed child lists. A Context is safe for concurrent
// use — Estimate calls borrow preallocated scratch from a sync.Pool and
// never mutate shared state, so query threads never take a lock (the
// high-concurrency property the paper engineers for) and steady-state
// inference runs allocation-free.
type Context struct {
	m *Model
	// topo orders nodes parents-first; root is topo[0].
	topo []int
	// children lists each node's children.
	children [][]int
	bins     []int
	// maxBins is the widest per-node domain (sizes the excl scratch).
	maxBins int
	// scratchFloats is the flat float64 budget one scratch needs:
	// lambda+pi+belief (3·Σbins), excl (maxBins), and the pair tables
	// (Σ parentBins·bins over non-root nodes).
	scratchFloats int
	// pool recycles inference scratch across calls and goroutines.
	pool sync.Pool
}

// NewContext validates the model and builds the topological CPD index.
func (m *Model) NewContext() (*Context, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := len(m.Cols)
	ctx := &Context{m: m, children: make([][]int, n), bins: make([]int, n)}
	for i := range m.Cols {
		ctx.bins[i] = m.Cols[i].Bins()
		if ctx.bins[i] > ctx.maxBins {
			ctx.maxBins = ctx.bins[i]
		}
		if p := m.Parent[i]; p >= 0 {
			ctx.children[p] = append(ctx.children[p], i)
		}
	}
	root := m.Root()
	ctx.topo = append(ctx.topo, root)
	for qi := 0; qi < len(ctx.topo); qi++ {
		for _, c := range ctx.children[ctx.topo[qi]] {
			ctx.topo = append(ctx.topo, c)
		}
	}
	if len(ctx.topo) != n {
		return nil, errors.New("bn: tree does not reach every node")
	}
	var sum, pairTotal int
	for i, b := range ctx.bins {
		sum += b
		if p := m.Parent[i]; p >= 0 {
			pairTotal += ctx.bins[p] * b
		}
	}
	ctx.scratchFloats = 3*sum + ctx.maxBins + pairTotal
	ctx.pool.New = func() any { return newScratch(ctx) }
	return ctx, nil
}

// Model returns the underlying model.
func (c *Context) Model() *Model { return c.m }

// scratch is one belief-propagation pass's preallocated working state. All
// per-node message views share a single flat backing array, so acquiring a
// fresh scratch costs a handful of allocations and a recycled one costs
// none — the BayesCard-style compilation of the inference loop.
type scratch struct {
	// flat backs lambda/pi/belief/excl/pair below with one allocation.
	flat []float64
	// lambda holds the per-node upward λ messages.
	lambda [][]float64
	// pi holds the per-node downward π messages.
	pi [][]float64
	// belief holds the per-node unnormalized beliefs P(x_i=b, e).
	belief [][]float64
	// pair holds the per-node unnormalized pairwise tables (nil for root).
	pair [][]float64
	// excl is the child-excluded π product, sized to the widest domain.
	excl []float64
	// weights assembles per-call soft evidence for the constraint APIs.
	weights [][]float64
}

// newScratch carves every per-node view out of one flat array.
func newScratch(c *Context) *scratch {
	n := len(c.bins)
	sc := &scratch{
		flat:    make([]float64, c.scratchFloats),
		lambda:  make([][]float64, n),
		pi:      make([][]float64, n),
		belief:  make([][]float64, n),
		pair:    make([][]float64, n),
		weights: make([][]float64, n),
	}
	off := 0
	carve := func(size int) []float64 {
		v := sc.flat[off : off+size : off+size]
		off += size
		return v
	}
	for i, b := range c.bins {
		sc.lambda[i] = carve(b)
	}
	for i, b := range c.bins {
		sc.pi[i] = carve(b)
	}
	for i, b := range c.bins {
		sc.belief[i] = carve(b)
	}
	sc.excl = carve(c.maxBins)
	for i, b := range c.bins {
		if p := c.m.Parent[i]; p >= 0 {
			sc.pair[i] = carve(c.bins[p] * b)
		}
	}
	return sc
}

func (c *Context) getScratch() *scratch  { return c.pool.Get().(*scratch) }
func (c *Context) putScratch(s *scratch) { c.pool.Put(s) }

// Prob computes P(evidence) with an upward (variable-elimination) pass.
// weights[i] gives per-bin soft-evidence weights for node i, or nil for an
// unconstrained node. Steady-state calls are allocation-free.
func (c *Context) Prob(weights [][]float64) float64 {
	sc := c.getScratch()
	p := c.prob(sc, weights)
	c.putScratch(sc)
	return p
}

// prob runs the upward pass over sc and folds the root prior.
func (c *Context) prob(sc *scratch, weights [][]float64) float64 {
	c.upward(sc, weights)
	root := c.topo[0]
	lr := sc.lambda[root]
	var p float64
	for b, prior := range c.m.Prior {
		p += prior * lr[b]
	}
	return p
}

// upward computes λ messages bottom-up into sc.lambda:
// λ_i(b) = w_i(b)·∏_c Σ_b' P(b'|b)·λ_c(b').
func (c *Context) upward(sc *scratch, weights [][]float64) {
	for ti := len(c.topo) - 1; ti >= 0; ti-- {
		i := c.topo[ti]
		nb := c.bins[i]
		l := sc.lambda[i]
		w := weights[i]
		for b := 0; b < nb; b++ {
			if w != nil {
				l[b] = w[b]
			} else {
				l[b] = 1
			}
		}
		for _, ch := range c.children[i] {
			cb := c.bins[ch]
			cpt := c.m.CPT[ch]
			lc := sc.lambda[ch]
			for b := 0; b < nb; b++ {
				if l[b] == 0 {
					continue
				}
				var msg float64
				row := cpt[b*cb : (b+1)*cb]
				for j, p := range row {
					msg += p * lc[j]
				}
				l[b] *= msg
			}
		}
	}
}

// Marginals runs full belief propagation, returning P(evidence), the
// unnormalized node beliefs P(x_i=b, e), and the unnormalized pairwise
// tables P(x_parent=a, x_i=b, e) (nil for the root). EM's E-step and
// FactorJoin's per-bucket conditioning both consume this.
//
// The returned tables are freshly checked-out scratch the caller owns; the
// hot paths inside this package reuse pooled scratch via marginals instead.
func (c *Context) Marginals(weights [][]float64) (float64, [][]float64, [][]float64) {
	// Not returned to the pool: belief and pair escape to the caller, which
	// owns them; GC reclaims the scratch with the result.
	sc := c.getScratch()
	pe := c.marginals(sc, weights)
	return pe, sc.belief, sc.pair
}

// marginals runs the full up-down pass into sc and returns P(evidence).
// sc.belief and sc.pair hold the results until the scratch is reused.
func (c *Context) marginals(sc *scratch, weights [][]float64) float64 {
	c.upward(sc, weights)
	root := c.topo[0]

	copy(sc.pi[root], c.m.Prior)

	var pe float64
	lr := sc.lambda[root]
	for b := range c.m.Prior {
		pe += c.m.Prior[b] * lr[b]
	}

	for _, i := range c.topo {
		nb := c.bins[i]
		bi := sc.belief[i]
		pii := sc.pi[i]
		li := sc.lambda[i]
		for b := 0; b < nb; b++ {
			bi[b] = pii[b] * li[b]
		}
		for _, ch := range c.children[i] {
			cb := c.bins[ch]
			cpt := c.m.CPT[ch]
			// π contribution to child ch excludes ch's own λ message:
			// exclMsg(b) = π_i(b)·w_i(b)·∏_{c'≠ch} m_{c'→i}(b)
			//            = belief_i(b) / m_{ch→i}(b) computed stably by
			// recomputing the product without ch.
			excl := sc.excl[:nb]
			w := weights[i]
			for b := 0; b < nb; b++ {
				v := pii[b]
				if w != nil {
					v *= w[b]
				}
				excl[b] = v
			}
			for _, other := range c.children[i] {
				if other == ch {
					continue
				}
				ob := c.bins[other]
				ocpt := c.m.CPT[other]
				ol := sc.lambda[other]
				for b := 0; b < nb; b++ {
					if excl[b] == 0 {
						continue
					}
					var msg float64
					row := ocpt[b*ob : (b+1)*ob]
					for j, p := range row {
						msg += p * ol[j]
					}
					excl[b] *= msg
				}
			}
			pich := sc.pi[ch]
			pairch := sc.pair[ch]
			clear(pich)
			clear(pairch)
			lch := sc.lambda[ch]
			for b := 0; b < nb; b++ {
				if excl[b] == 0 {
					continue
				}
				row := cpt[b*cb : (b+1)*cb]
				for j, p := range row {
					contrib := excl[b] * p
					pich[j] += contrib
					pairch[b*cb+j] = contrib * lch[j]
				}
			}
		}
	}
	return pe
}

// WeightsFor compiles a column constraint into the column's bin weights.
func (m *Model) WeightsFor(col string, cons expr.Constraint) ([]float64, error) {
	i := m.ColIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("bn: model for %s has no column %q", m.Table, col)
	}
	return m.Cols[i].Weights(cons), nil
}

// buildWeights compiles constraints into sc.weights, multiplying repeated
// columns. The per-constraint weight vectors still allocate (they come from
// ColumnModel.Weights); the n-wide header array is pooled.
func (c *Context) buildWeights(sc *scratch, constraints []expr.Constraint) error {
	clear(sc.weights)
	for _, cons := range constraints {
		i := c.m.ColIndex(cons.Col)
		if i < 0 {
			return fmt.Errorf("bn: no column %q in model for %s", cons.Col, c.m.Table)
		}
		w := c.m.Cols[i].Weights(cons)
		if sc.weights[i] != nil {
			for b := range w {
				sc.weights[i][b] *= w[b]
			}
		} else {
			sc.weights[i] = w
		}
	}
	return nil
}

// SelectivityConj estimates P(∧ constraints). Constraints on columns the
// model does not cover yield an error (the caller falls back to a
// traditional estimator, as the Model Monitor prescribes).
func (c *Context) SelectivityConj(constraints []expr.Constraint) (float64, error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	if err := c.buildWeights(sc, constraints); err != nil {
		return 0, err
	}
	return c.prob(sc, sc.weights), nil
}

// SelectivityNode estimates the probability of a general filter tree via
// the inclusion–exclusion transformation (ByteCard's OR handling) with an
// encoder mapping literals to numeric images.
func (c *Context) SelectivityNode(filter *expr.Node, enc expr.Encoder) (float64, error) {
	if filter == nil {
		return 1, nil
	}
	terms, err := filter.InclusionExclusion()
	if err != nil {
		return 0, err
	}
	var sel float64
	for _, term := range terms {
		s, err := c.SelectivityConj(expr.BuildConstraints(term.Preds, enc))
		if err != nil {
			return 0, err
		}
		sel += term.Sign * s
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

// JointWithColumn returns P(filter-constraints ∧ col = bin b) for every bin
// of col in one belief-propagation pass — FactorJoin reads its per-bucket
// filtered counts through this. Only the returned vector escapes; the BP
// buffers come from the pooled scratch.
func (c *Context) JointWithColumn(constraints []expr.Constraint, col string) ([]float64, error) {
	i := c.m.ColIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("bn: no column %q in model for %s", col, c.m.Table)
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	if err := c.buildWeights(sc, constraints); err != nil {
		return nil, err
	}
	c.marginals(sc, sc.weights)
	return append([]float64(nil), sc.belief[i]...), nil
}

// ProbNoScratch computes P(evidence) exactly like Prob but with fresh
// per-call buffer allocation — the pre-pooling behaviour, kept as the
// reference the scratch-parity and allocation tests compare against. It
// performs the same arithmetic in the same order as
// Prob, so results are bit-identical.
func (c *Context) ProbNoScratch(weights [][]float64) float64 {
	n := len(c.m.Cols)
	lambda := make([][]float64, n)
	for ti := len(c.topo) - 1; ti >= 0; ti-- {
		i := c.topo[ti]
		nb := c.bins[i]
		l := make([]float64, nb)
		w := weights[i]
		for b := 0; b < nb; b++ {
			if w != nil {
				l[b] = w[b]
			} else {
				l[b] = 1
			}
		}
		for _, ch := range c.children[i] {
			cb := c.bins[ch]
			cpt := c.m.CPT[ch]
			lc := lambda[ch]
			for b := 0; b < nb; b++ {
				if l[b] == 0 {
					continue
				}
				var msg float64
				row := cpt[b*cb : (b+1)*cb]
				for j, p := range row {
					msg += p * lc[j]
				}
				l[b] *= msg
			}
		}
		lambda[i] = l
	}
	root := c.topo[0]
	var p float64
	for b, prior := range c.m.Prior {
		p += prior * lambda[root][b]
	}
	return p
}

// treeNode is the pointer-linked representation used by the ablation
// baseline that walks the tree structure on every inference instead of the
// flattened topological arrays.
type treeNode struct {
	idx      int
	children []*treeNode
}

// TreeWalker is the non-indexed inference baseline for the CPD-indexing
// ablation (BenchmarkAblationCPDIndexing): mathematically identical to
// Context.Prob but re-traversing a pointer tree with per-node map lookups,
// the access pattern the paper's initContext optimization removes.
type TreeWalker struct {
	m     *Model
	root  *treeNode
	byIdx map[int]*treeNode
}

// NewTreeWalker builds the pointer-tree inference baseline.
func (m *Model) NewTreeWalker() (*TreeWalker, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	tw := &TreeWalker{m: m, byIdx: map[int]*treeNode{}}
	for i := range m.Cols {
		tw.byIdx[i] = &treeNode{idx: i}
	}
	for i, p := range m.Parent {
		if p < 0 {
			tw.root = tw.byIdx[i]
		} else {
			tw.byIdx[p].children = append(tw.byIdx[p].children, tw.byIdx[i])
		}
	}
	return tw, nil
}

// Prob computes P(evidence) recursively over the pointer tree.
func (t *TreeWalker) Prob(weights [][]float64) float64 {
	var lambda func(n *treeNode) []float64
	lambda = func(n *treeNode) []float64 {
		nb := t.m.Cols[n.idx].Bins()
		l := make([]float64, nb)
		w := weights[n.idx]
		for b := 0; b < nb; b++ {
			if w != nil {
				l[b] = w[b]
			} else {
				l[b] = 1
			}
		}
		for _, ch := range n.children {
			child := t.byIdx[ch.idx] // deliberate indirection per visit
			cb := t.m.Cols[child.idx].Bins()
			cl := lambda(child)
			cpt := t.m.CPT[child.idx]
			for b := 0; b < nb; b++ {
				var msg float64
				for j := 0; j < cb; j++ {
					msg += cpt[b*cb+j] * cl[j]
				}
				l[b] *= msg
			}
		}
		return l
	}
	l := lambda(t.root)
	var p float64
	for b, prior := range t.m.Prior {
		p += prior * l[b]
	}
	return p
}
