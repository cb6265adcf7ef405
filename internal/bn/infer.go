package bn

import (
	"errors"
	"fmt"
	"sync"

	"bytecard/internal/expr"
)

// Context is the immutable inference state built by the paper's
// initContext step: nodes laid out in a topological array with flattened
// CPT access and precomputed child lists, plus the answers of the
// evidence-free pass (every node's belief and upward messages), which no
// query recomputes. A Context is safe for concurrent use — Estimate calls
// borrow preallocated scratch from a sync.Pool and never mutate shared
// state, so query threads never take a lock (the high-concurrency property
// the paper engineers for) and steady-state inference runs allocation-free.
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
	// lambda+pi+belief (3·Σbins), the upward messages (Σ parentBins over
	// non-root nodes) and excl (maxBins).
	scratchFloats int
	// pairFloats sizes the pair tables (Σ parentBins·bins over non-root
	// nodes), carved only for scratch that EM or Marginals uses.
	pairFloats int
	// free is the evidence-free pass NewContext runs: its lambda, msg and
	// belief hold every node's λ, upward message (on every bin) and belief
	// P(x_i=b). A node whose subtree carries no evidence reads its λ and
	// message from here, and a query with no evidence reads its beliefs.
	free *scratch
	// freeP is P(no evidence) as the upward pass sums it.
	freeP float64
	// pool recycles inference scratch across calls and goroutines.
	pool sync.Pool
}

// NewContext validates the model, builds the topological CPD index and
// runs the evidence-free pass.
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
	var sum, msgTotal, pairTotal int
	for i, b := range ctx.bins {
		sum += b
		if p := m.Parent[i]; p >= 0 {
			msgTotal += ctx.bins[p]
			pairTotal += ctx.bins[p] * b
		}
	}
	ctx.scratchFloats = 3*sum + msgTotal + ctx.maxBins
	ctx.pairFloats = pairTotal
	ctx.pool.New = func() any { return newScratch(ctx) }
	// With free unset every node counts as evidence-bearing, so this pass
	// fills every λ, every message on every bin and every belief, with the
	// query path's code and order.
	free := newScratch(ctx)
	ctx.freeP = ctx.upward(free, free.weights)
	for i := range free.want {
		free.want[i] = true
	}
	ctx.downward(free, free.weights, false)
	ctx.free = free
	return ctx, nil
}

// Model returns the underlying model.
func (c *Context) Model() *Model { return c.m }

// scratch is one belief-propagation pass's preallocated working state. All
// per-node message buffers share a single flat backing array, so acquiring
// a fresh scratch costs a handful of allocations and a recycled one costs
// none — the BayesCard-style compilation of the inference loop.
type scratch struct {
	// flat backs lambda/msg/pi/belief/excl below with one allocation.
	flat []float64
	// lambda holds the per-node upward λ messages.
	lambda [][]float64
	// msg holds each non-root node's upward message to its parent,
	// m_{i→p}(a) = Σ_b P(b|a)·λ_i(b) (nil for the root).
	msg [][]float64
	// pi holds the per-node downward π messages.
	pi [][]float64
	// belief holds the per-node unnormalized beliefs P(x_i=b, e).
	belief [][]float64
	// pair holds the per-node unnormalized pairwise tables (nil for root),
	// carved by the first full marginals pass on this scratch.
	pair     [][]float64
	hasPairs bool
	// excl is the child-excluded π product, sized to the widest domain.
	excl []float64
	// weights assembles per-call soft evidence for the constraint APIs.
	weights [][]float64
	// active marks the nodes whose subtree carries evidence this pass.
	active []bool
	// lam and up are the pass's λ and upward-message views: the buffers
	// above for active nodes, the evidence-free pass's for the rest.
	lam, up [][]float64
	// want marks the nodes the downward pass computes π for.
	want []bool
}

// newScratch carves every per-node buffer but the pair tables out of one
// flat array.
func newScratch(c *Context) *scratch {
	n := len(c.bins)
	views := make([][]float64, 7*n)
	flags := make([]bool, 2*n)
	sc := &scratch{
		flat:    make([]float64, c.scratchFloats),
		lambda:  views[0*n : 1*n : 1*n],
		msg:     views[1*n : 2*n : 2*n],
		pi:      views[2*n : 3*n : 3*n],
		belief:  views[3*n : 4*n : 4*n],
		pair:    views[4*n : 5*n : 5*n],
		lam:     views[5*n : 6*n : 6*n],
		up:      views[6*n : 7*n : 7*n],
		weights: make([][]float64, n),
		active:  flags[:n:n],
		want:    flags[n:],
	}
	off := 0
	carve := func(size int) []float64 {
		v := sc.flat[off : off+size : off+size]
		off += size
		return v
	}
	for i, b := range c.bins {
		sc.lambda[i] = carve(b)
		sc.pi[i] = carve(b)
		sc.belief[i] = carve(b)
		if p := c.m.Parent[i]; p >= 0 {
			sc.msg[i] = carve(c.bins[p])
		}
	}
	sc.excl = carve(c.maxBins)
	return sc
}

// carvePairs gives sc its pair tables, out of one more flat array.
func (c *Context) carvePairs(sc *scratch) {
	flat := make([]float64, c.pairFloats)
	for i, b := range c.bins {
		if p := c.m.Parent[i]; p >= 0 {
			size := c.bins[p] * b
			sc.pair[i], flat = flat[:size:size], flat[size:]
		}
	}
	sc.hasPairs = true
}

func (c *Context) getScratch() *scratch  { return c.pool.Get().(*scratch) }
func (c *Context) putScratch(s *scratch) { c.pool.Put(s) }

// Prob computes P(evidence) with an upward (variable-elimination) pass.
// weights[i] gives per-bin soft-evidence weights for node i, or nil for an
// unconstrained node. Steady-state calls are allocation-free.
func (c *Context) Prob(weights [][]float64) float64 {
	sc := c.getScratch()
	p := c.upward(sc, weights)
	c.putScratch(sc)
	return p
}

// upward computes λ messages bottom-up, λ_i(b) = w_i(b)·∏_c m_{c→i}(b),
// and returns P(evidence) = Σ_b prior(b)·λ_root(b). It walks only the
// nodes on evidence→root paths: any other node's subtree is evidence-free,
// so its λ and message are the evidence-free pass's, bit for bit. A
// message is computed on every bin its parent's own evidence leaves
// nonzero — the only bins the parent's λ and the downward pass read.
func (c *Context) upward(sc *scratch, weights [][]float64) float64 {
	for ti := len(c.topo) - 1; ti >= 0; ti-- {
		i := c.topo[ti]
		act := c.free == nil || weights[i] != nil
		for _, ch := range c.children[i] {
			act = act || sc.active[ch]
		}
		sc.active[i] = act
		if !act {
			sc.lam[i], sc.up[i] = c.free.lambda[i], c.free.msg[i]
			continue
		}
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
			m := sc.up[ch]
			for b := 0; b < nb; b++ {
				if l[b] == 0 {
					continue
				}
				l[b] *= m[b]
			}
		}
		sc.lam[i] = l
		p := c.m.Parent[i]
		if p < 0 {
			continue
		}
		m := sc.msg[i]
		wp := weights[p]
		cpt := c.m.CPT[i]
		for a := range m {
			if wp != nil && wp[a] == 0 {
				continue
			}
			var msg float64
			row := cpt[a*nb : (a+1)*nb]
			for j, pr := range row {
				msg += pr * l[j]
			}
			m[a] = msg
		}
		sc.up[i] = m
	}
	root := c.topo[0]
	if !sc.active[root] {
		return c.freeP
	}
	var p float64
	lr := sc.lam[root]
	for b, prior := range c.m.Prior {
		p += prior * lr[b]
	}
	return p
}

// Marginals runs full belief propagation, returning P(evidence), the
// unnormalized node beliefs P(x_i=b, e), and the unnormalized pairwise
// tables P(x_parent=a, x_i=b, e) (nil for the root). EM's E-step consumes
// this; bucket vectors take the targeted JointWithColumns pass instead.
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
	if !sc.hasPairs {
		c.carvePairs(sc)
	}
	pe := c.upward(sc, weights)
	for i := range sc.want {
		sc.want[i] = true
	}
	c.downward(sc, weights, true)
	return pe
}

// downward runs the π pass from the root over the nodes sc.want marks (a
// set closed under parents), leaving belief_i(b) = π_i(b)·λ_i(b) for each,
// and, with pairs, the pairwise tables of every marked non-root node. It
// reads the λ and messages the preceding upward pass left in sc.
func (c *Context) downward(sc *scratch, weights [][]float64, pairs bool) {
	copy(sc.pi[c.topo[0]], c.m.Prior)
	for _, i := range c.topo {
		if !sc.want[i] {
			continue
		}
		nb := c.bins[i]
		bi := sc.belief[i]
		pii := sc.pi[i]
		li := sc.lam[i]
		for b := 0; b < nb; b++ {
			bi[b] = pii[b] * li[b]
		}
		w := weights[i]
		for _, ch := range c.children[i] {
			if !sc.want[ch] {
				continue
			}
			// π contribution to child ch excludes ch's own λ message:
			// exclMsg(b) = π_i(b)·w_i(b)·∏_{c'≠ch} m_{c'→i}(b), multiplied
			// out in children order from the stored messages.
			excl := sc.excl[:nb]
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
				m := sc.up[other]
				for b := 0; b < nb; b++ {
					if excl[b] == 0 {
						continue
					}
					excl[b] *= m[b]
				}
			}
			cb := c.bins[ch]
			cpt := c.m.CPT[ch]
			pich := sc.pi[ch]
			clear(pich)
			if !pairs {
				for b := 0; b < nb; b++ {
					if excl[b] == 0 {
						continue
					}
					row := cpt[b*cb : (b+1)*cb]
					for j, p := range row {
						contrib := excl[b] * p
						pich[j] += contrib
					}
				}
				continue
			}
			pairch := sc.pair[ch]
			clear(pairch)
			lch := sc.lam[ch]
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
	return c.upward(sc, sc.weights), nil
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

// JointWithColumns returns, for each column of cols, P(constraints ∧ col =
// bin b) for every bin b — FactorJoin reads a table's per-bucket filtered
// counts for all its join keys through this. The upward pass walks only
// the evidence→root paths and the downward pass only the root→column
// paths; without constraints the evidence-free beliefs are copied and no
// pass runs. Only the returned vectors escape; the BP buffers come from the
// pooled scratch.
func (c *Context) JointWithColumns(constraints []expr.Constraint, cols []string) ([][]float64, error) {
	total := 0
	for _, col := range cols {
		i := c.m.ColIndex(col)
		if i < 0 {
			return nil, fmt.Errorf("bn: no column %q in model for %s", col, c.m.Table)
		}
		total += c.bins[i]
	}
	beliefs := c.free.belief
	if len(constraints) > 0 {
		sc := c.getScratch()
		defer c.putScratch(sc)
		if err := c.buildWeights(sc, constraints); err != nil {
			return nil, err
		}
		c.upward(sc, sc.weights)
		clear(sc.want)
		for _, col := range cols {
			for i := c.m.ColIndex(col); i >= 0 && !sc.want[i]; i = c.m.Parent[i] {
				sc.want[i] = true
			}
		}
		c.downward(sc, sc.weights, false)
		beliefs = sc.belief
	}
	out := make([][]float64, len(cols))
	flat := make([]float64, total)
	for k, col := range cols {
		b := beliefs[c.m.ColIndex(col)]
		out[k] = flat[:len(b):len(b)]
		flat = flat[len(b):]
		copy(out[k], b)
	}
	return out, nil
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
