package factorjoin

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// MaxGraph bounds a compiled join graph: tables, conditions and distinct
// join columns are each indexed by the bits of a uint64.
const MaxGraph = 64

// Graph is the join structure of one query (or of one batch of join-size
// requests over the same table instances) compiled once: bindings, join
// columns and conditions are interned to small integers, so every request
// against it is a pair of bitmasks and inference touches no string. It
// also carries the inference state requests share:
//
//   - the filtered bucket vector of each (table, key column), asked of the
//     CountSource once and kept for the graph's lifetime;
//   - every directed message downCount(f→v), memoized by (f's column at v,
//     v's bucket layout, the tables of the subtree below f, the selected
//     conditions between those tables). A message is a pure function of
//     exactly that: the subtree hangs off v through f's one column in v, so
//     every other join column of its tables — and therefore every variable,
//     bucket layout, factor order and float accumulation order inside it —
//     is decided by the conditions internal to the subtree, listed in the
//     same order in every request that selects them. A subtree shared by
//     many requests (the join-order DP sizes every connected subset of one
//     query) is computed once, bit-identical to computing it in place;
//   - each root-side message's effective-NDV vector (a Cardenas pow() per
//     bucket), built on first use.
//
// A Graph is safe for concurrent Estimate calls: shared state is published
// under one mutex, computed outside it, first writer wins — racing workers
// compute identical values and converge on one copy. It holds everything
// by reference for as long as a caller (or a call the latency guard
// abandoned) can reach it, so it is not pooled; the garbage collector
// decides its lifetime.
type Graph struct {
	m      *Model
	src    CountSource
	mode   Mode
	tables []QueryTable
	// refs are the distinct (binding, column) pairs the conditions join, in
	// first-seen condition order; condL/condR index them per condition.
	refs         []colRef
	condL, condR []uint8
	// condTabs is, per condition, the mask of the (at most two) tables it
	// joins.
	condTabs []uint64

	mu    sync.Mutex
	vecs  []leafVec
	msgs  map[msgKey]*message
	arena []float64
}

// colRef is one interned join column.
type colRef struct {
	bind, col string
	// table indexes Graph.tables, or is -1 when no table has the binding.
	table int
	// ks and buckets are nil when the model has no bucket stats for the
	// column.
	ks      *KeyStats
	buckets *Buckets
}

// leafVec is one memoized CountSource answer (errors included: a missing
// or failing table model fails identically for every request).
type leafVec struct {
	done    bool
	buckets *Buckets
	cnt     []float64
	err     error
}

// msgKey identifies a directed message: the interned column through which
// the subtree's top factor attaches to the variable, the variable's bucket
// layout, the tables of the subtree and the selected conditions among them.
type msgKey struct {
	mask, conds uint64
	buckets     *Buckets
	ref         uint8
}

// message carries a subtree's per-bucket statistics at a variable: the
// (expected or bounded) row count and the per-key-value maximum frequency
// of the whole subtree (base MaxF amplified by downstream fan-out — the
// quantity the upper bound multiplies). Only ModeBound reads maxF: in
// ModeEstimate a message with factors below it has none (nil). Messages
// are immutable once published; a single-column factor's message aliases
// the CountSource's vector and the model's MaxF instead of copying them.
type message struct {
	ks   *KeyStats
	cnt  []float64
	maxF []float64
	err  error
	// ndv is effNDV per bucket, built under Graph.mu on first use as a
	// root side (same function, same inputs as computing it in place).
	ndv []float64
}

// Compile interns a join structure for repeated estimation. tables and
// conds are the universe requests select from (Graph.Estimate takes
// bitmasks over their indices); both slices are retained. Bindings must
// identify table instances consistently, and src must answer for them, for
// the graph's lifetime.
func (m *Model) Compile(tables []QueryTable, conds []Cond, src CountSource, mode Mode) (*Graph, error) {
	if len(tables) > MaxGraph || len(conds) > MaxGraph {
		return nil, fmt.Errorf("factorjoin: join graph of %d tables and %d conditions exceeds the %d-entry limit", len(tables), len(conds), MaxGraph)
	}
	g := &Graph{
		m: m, src: src, mode: mode, tables: tables,
		refs:     make([]colRef, 0, 2*len(tables)),
		condL:    make([]uint8, len(conds)),
		condR:    make([]uint8, len(conds)),
		condTabs: make([]uint64, len(conds)),
		msgs:     make(map[msgKey]*message, 2*len(tables)),
	}
	for i, c := range conds {
		l, err := g.intern(c.LBind, c.LCol)
		if err != nil {
			return nil, err
		}
		r, err := g.intern(c.RBind, c.RCol)
		if err != nil {
			return nil, err
		}
		g.condL[i], g.condR[i] = l, r
		for _, x := range [2]uint8{l, r} {
			if t := g.refs[x].table; t >= 0 {
				g.condTabs[i] |= 1 << t
			}
		}
	}
	g.vecs = make([]leafVec, len(g.refs))
	return g, nil
}

func (g *Graph) intern(bind, col string) (uint8, error) {
	for i := range g.refs {
		if g.refs[i].bind == bind && g.refs[i].col == col {
			return uint8(i), nil
		}
	}
	if len(g.refs) == MaxGraph {
		return 0, fmt.Errorf("factorjoin: join graph joins more than %d distinct columns", MaxGraph)
	}
	r := colRef{bind: bind, col: col, table: -1}
	for i := range g.tables {
		if g.tables[i].Binding == bind {
			r.table = i
		}
	}
	if r.table >= 0 {
		if ks, ok := g.m.Keys[keyName(g.tables[r.table].Name, col)]; ok {
			r.ks, r.buckets = ks, g.m.BucketsByClass[ks.Class]
		}
	}
	g.refs = append(g.refs, r)
	return uint8(len(g.refs) - 1), nil
}

// all returns the mask selecting the first n entries.
func all(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// item is one request's factor graph over the compiled universe: a tree of
// factors (tables) and variables (equivalence classes of joined columns)
// whose edges are the request's join columns in first-seen condition
// order. It lives on the caller's stack.
type item struct {
	// Edge e joins table fac[e] to variable vr[e] through column ref[e].
	n   int
	ref [MaxGraph]uint8
	fac [MaxGraph]uint8
	vr  [MaxGraph]uint8
	// nvars variables; buckets is each one's layout, byVar its edges and
	// byFac each table's edges, as masks over edge positions — ascending
	// bit order is the reference order every loop below follows.
	nvars   int
	buckets [MaxGraph]*Buckets
	byVar   [MaxGraph]uint64
	byFac   [MaxGraph]uint64
	// sub is, per table, the tables of the subtree below it (itself
	// included) as seen from the root variable.
	sub [MaxGraph]uint64
	// conds is the request's condition mask.
	conds uint64
}

// build unifies the selected conditions' columns into variables and checks
// that the factor graph is a connected tree.
func (it *item) build(g *Graph, tables, conds uint64) error {
	// Union-find over interned columns. A class's representative decides
	// the variable's bucket layout, so unions follow the reference
	// direction exactly (left root under right root).
	var parent [MaxGraph]uint8
	for i := range g.refs {
		parent[i] = uint8(i)
	}
	find := func(x uint8) uint8 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	it.conds = conds
	var seen uint64
	for c := conds; c != 0; c &= c - 1 {
		j := bits.TrailingZeros64(c)
		l, r := g.condL[j], g.condR[j]
		for _, x := range [2]uint8{l, r} {
			if seen&(1<<x) == 0 {
				seen |= 1 << x
				it.ref[it.n] = x
				it.n++
			}
		}
		if a, b := find(l), find(r); a != b {
			parent[a] = b
		}
	}
	var varOf [MaxGraph]uint8 // class representative → variable + 1
	var varsOf [MaxGraph]uint64
	for e := 0; e < it.n; e++ {
		x := it.ref[e]
		root := find(x)
		if varOf[root] == 0 {
			rr := &g.refs[root]
			if rr.table < 0 || tables&(1<<rr.table) == 0 {
				return fmt.Errorf("factorjoin: condition references unknown binding %s", rr.bind)
			}
			if rr.ks == nil {
				return fmt.Errorf("factorjoin: no bucket stats for %s.%s", g.tables[rr.table].Name, rr.col)
			}
			it.buckets[it.nvars] = rr.buckets
			it.nvars++
			varOf[root] = uint8(it.nvars)
		}
		v := varOf[root] - 1
		r := &g.refs[x]
		if r.table < 0 || tables&(1<<r.table) == 0 {
			return fmt.Errorf("factorjoin: condition references unknown binding %s", r.bind)
		}
		if varsOf[r.table]&(1<<v) != 0 {
			return fmt.Errorf("factorjoin: table %s joins variable twice (cyclic graph)", r.bind)
		}
		if r.ks == nil {
			return fmt.Errorf("factorjoin: no bucket stats for %s.%s", g.tables[r.table].Name, r.col)
		}
		// A side's stats are read bucket by bucket in the variable's
		// layout, which a condition across two join classes does not share.
		if b := it.buckets[v]; r.buckets != b && !slices.Equal(r.buckets.Bounds, b.Bounds) {
			return fmt.Errorf("factorjoin: %s.%s joins across bucket layouts (%s and %s)", r.bind, r.col, r.buckets.Class, b.Class)
		}
		varsOf[r.table] |= 1 << v
		it.fac[e], it.vr[e] = uint8(r.table), v
		it.byVar[v] |= 1 << e
		it.byFac[r.table] |= 1 << e
	}
	// Tree check on the bipartite graph: nodes-1 edges, every table joined,
	// and (below) everything reachable from the root.
	if nodes := it.nvars + bits.OnesCount64(tables); it.n != nodes-1 {
		return fmt.Errorf("factorjoin: join graph is cyclic (%d edges, %d nodes)", it.n, nodes)
	}
	for t := tables; t != 0; t &= t - 1 {
		f := bits.TrailingZeros64(t)
		if it.byFac[f] == 0 {
			return fmt.Errorf("factorjoin: table %s participates in no join condition", g.tables[f].Binding)
		}
	}
	return nil
}

// root picks the variable touching the most factors (richest containment
// information at the final combination step), the first on ties, and fills
// the subtree masks below it.
func (it *item) root(tables uint64) (int, error) {
	root := 0
	for v := 1; v < it.nvars; v++ {
		if bits.OnesCount64(it.byVar[v]) > bits.OnesCount64(it.byVar[root]) {
			root = v
		}
	}
	var visited uint64
	for es := it.byVar[root]; es != 0; es &= es - 1 {
		it.subtree(bits.TrailingZeros64(es), &visited)
	}
	if visited != tables {
		// nodes-1 edges without connectivity: a cycle in one component and
		// a tree in another.
		return 0, fmt.Errorf("factorjoin: join graph is not connected")
	}
	return root, nil
}

// subtree fills and returns sub for the factor at edge e, walking away
// from the edge's variable. visited stops the walk on a graph the edge
// count let through with a cycle; the caller then finds a table unreached.
func (it *item) subtree(e int, visited *uint64) uint64 {
	f, v := it.fac[e], it.vr[e]
	mask := uint64(1) << f
	if *visited&mask != 0 {
		return 0
	}
	*visited |= mask
	for es := it.byFac[f] &^ (1 << e); es != 0; es &= es - 1 {
		ue := bits.TrailingZeros64(es)
		if it.vr[ue] == v {
			continue
		}
		for gs := it.byVar[it.vr[ue]] &^ (1 << ue); gs != 0; gs &= gs - 1 {
			mask |= it.subtree(bits.TrailingZeros64(gs), visited)
		}
	}
	it.sub[f] = mask
	return mask
}

// Estimate runs factor-graph inference over the selected tables and
// conditions (bitmasks over Compile's slices; their ascending index order
// is the order the request lists them in). The factor graph must be a
// tree; cyclic and disconnected selections return an error so the caller
// can fall back to a traditional estimator.
func (g *Graph) Estimate(tables, conds uint64) (float64, error) {
	if bits.OnesCount64(tables) < 2 || conds == 0 {
		return 0, fmt.Errorf("factorjoin: need at least two tables and one condition")
	}
	var it item
	if err := it.build(g, tables, conds); err != nil {
		return 0, err
	}
	root, err := it.root(tables)
	if err != nil {
		return 0, err
	}
	ws := scratchPool.Get().(*scratch)
	defer scratchPool.Put(ws)
	est, err := g.combine(&it, ws, root)
	if err != nil {
		return 0, err
	}
	if est != est || est < 0 { // NaN or negative
		est = 0
	}
	return est, nil
}

// scratch is one Estimate call's working memory: two bucket-sized vectors
// (fan-out, key domain) per recursion depth.
type scratch struct {
	levels [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// at returns two n-element vectors for recursion depth d. Their contents
// are whatever the previous user left.
func (s *scratch) at(d, n int) (a, b []float64) {
	for len(s.levels) <= d {
		s.levels = append(s.levels, nil)
	}
	if len(s.levels[d]) < 2*n {
		s.levels[d] = make([]float64, 2*n)
	}
	buf := s.levels[d]
	return buf[:n:n], buf[n : 2*n : 2*n]
}

// alloc carves n floats that live as long as the graph (g.mu held).
func (g *Graph) alloc(n int) []float64 {
	if len(g.arena) < n {
		g.arena = make([]float64, 8*n)
	}
	out := g.arena[:n:n]
	g.arena = g.arena[n:]
	return out
}

// vector returns the CountSource's filtered bucket counts for an interned
// column, asking once per graph.
func (g *Graph) vector(x uint8, buckets *Buckets) ([]float64, error) {
	g.mu.Lock()
	lv := g.vecs[x]
	g.mu.Unlock()
	if !lv.done {
		r := &g.refs[x]
		lv = leafVec{done: true, buckets: buckets}
		lv.cnt, lv.err = g.ask(r, buckets)
		g.mu.Lock()
		if g.vecs[x].done {
			lv = g.vecs[x]
		} else {
			g.vecs[x] = lv
		}
		g.mu.Unlock()
	}
	if lv.buckets != buckets {
		// The column is joined under two bucket layouts (columns of
		// different join classes equated); only the first is kept.
		return g.ask(&g.refs[x], buckets)
	}
	return lv.cnt, lv.err
}

// ask is one checked CountSource call.
func (g *Graph) ask(r *colRef, buckets *Buckets) ([]float64, error) {
	name := g.tables[r.table].Name
	cnt, err := g.src(r.bind, name, r.col, buckets.Bounds)
	if err != nil {
		return nil, err
	}
	if len(cnt) != buckets.Count() {
		return nil, fmt.Errorf("factorjoin: count source returned %d buckets for %s.%s, want %d", len(cnt), name, r.col, buckets.Count())
	}
	return cnt, nil
}
