package factorjoin

import (
	"math"
	"math/bits"

	"bytecard/internal/cardinal"
)

// Mode selects between the probabilistic point estimate and the upper
// bound FactorJoin natively produces.
type Mode int

// Inference modes.
const (
	// ModeEstimate combines average per-value frequencies under the
	// containment assumption (min-NDV).
	ModeEstimate Mode = iota
	// ModeBound combines maximum per-value frequencies, yielding an upper
	// bound on the true join size when the supplied bucket counts are
	// exact upper bounds.
	ModeBound
)

// QueryTable identifies one joined table.
type QueryTable struct {
	// Binding is the query alias; Name the physical table carrying stats.
	Binding, Name string
}

// Cond is one equi-join condition between bindings.
type Cond struct {
	LBind, LCol string
	RBind, RCol string
}

// CountSource supplies the filtered per-bucket row counts of one table's
// key column — in ByteCard this is the table's Bayesian network evaluated
// jointly with the key bucket (P(filters ∧ key∈b)·|T|); tests supply exact
// counts. Inference keeps the returned slice, read-only, for as long as
// the compiled graph lives; the source must not modify it afterwards.
type CountSource func(binding, table, column string, bounds []float64) ([]float64, error)

// Estimate runs factor-graph inference over the query's join structure.
// The factor graph must be a tree (acyclic); cyclic graphs return an error
// so the caller can fall back to a traditional estimator. It is Compile
// followed by one Graph.Estimate over everything: callers sizing many
// subsets of one query compile once and share the graph.
func (m *Model) Estimate(tables []QueryTable, conds []Cond, src CountSource, mode Mode) (float64, error) {
	g, err := m.Compile(tables, conds, src, mode)
	if err != nil {
		return 0, err
	}
	return g.Estimate(all(len(tables)), all(len(conds)))
}

// down returns the message of the subtree below edge e's factor as seen
// from edge e's variable (excluding the variable's other factors),
// computing it on first use.
func (g *Graph) down(it *item, ws *scratch, e, depth int) (*message, error) {
	f, v, x := it.fac[e], it.vr[e], it.ref[e]
	key := msgKey{mask: it.sub[f], buckets: it.buckets[v], ref: x}
	for c := it.conds; c != 0; c &= c - 1 {
		if j := bits.TrailingZeros64(c); g.condTabs[j]&^key.mask == 0 {
			key.conds |= 1 << j
		}
	}
	g.mu.Lock()
	msg := g.msgs[key]
	g.mu.Unlock()
	if msg == nil {
		msg = g.compute(it, ws, e, depth)
		g.mu.Lock()
		if prev := g.msgs[key]; prev != nil {
			msg = prev
		} else {
			g.msgs[key] = msg
		}
		g.mu.Unlock()
	}
	return msg, msg.err
}

// compute builds the message down describes, computing only what the mode
// reads: the estimate reads counts, the bound counts and max frequencies.
// So in estimate mode a message with factors below it carries no maxF,
// and in bound mode no key domain is filled.
func (g *Graph) compute(it *item, ws *scratch, e, depth int) *message {
	f, v, x := it.fac[e], it.vr[e], it.ref[e]
	ks := g.refs[x].ks
	cnt, err := g.vector(x, it.buckets[v])
	if err != nil {
		return &message{err: err}
	}
	others := it.byFac[f] &^ (1 << e)
	if others == 0 {
		// A single-column factor's message is the base message itself;
		// nothing below mutates it, so it aliases its inputs.
		return &message{ks: ks, cnt: cnt, maxF: ks.MaxF}
	}
	bound := g.mode == ModeBound
	n := len(cnt)
	if bound {
		n += len(ks.MaxF)
	}
	g.mu.Lock()
	buf := g.alloc(n)
	g.mu.Unlock()
	out := &message{ks: ks, cnt: buf[:len(cnt):len(cnt)]}
	copy(out.cnt, cnt)
	if bound {
		out.maxF = buf[len(cnt):]
		copy(out.maxF, ks.MaxF)
	}
	for es := others; es != 0; es &= es - 1 {
		ue := bits.TrailingZeros64(es)
		u := it.vr[ue]
		// Fan-out through variable u: expected (estimate) or maximal
		// (bound) join partners per subtree row whose u-key falls in each
		// u-bucket. In bound mode it is also the per-value worst case the
		// max frequency projects.
		ub := it.buckets[u].Count()
		fan, domain := ws.at(depth, ub)
		if !bound {
			g.domain(it, u, domain)
		}
		for i := range fan {
			fan[i] = 1
		}
		for gs := it.byVar[u] &^ (1 << ue); gs != 0; gs &= gs - 1 {
			sub, err := g.down(it, ws, bits.TrailingZeros64(gs), depth+1)
			if err != nil {
				return &message{err: err}
			}
			if bound {
				for b := range fan {
					fan[b] *= sub.maxF[b]
				}
				continue
			}
			for b := range fan {
				// Expected partners per row through u: the subtree's rows
				// spread over the bucket's key domain.
				fan[b] *= sub.cnt[b] / max(domain[b], 1)
			}
		}
		// Project the fan-out from u-buckets onto v-buckets through f's
		// key-tree conditional P(b_u | b_v): the expected fan-out Σ p·fan
		// of each v-bucket with rows, and in bound mode the per-value worst
		// case — a value's rows may all land in the reachable u-bucket
		// with the largest downstream frequency. Both walk only the row's
		// non-zero entries; the sum falls back to the dense row when a
		// fan-out is not finite, because 0·Inf and 0·NaN are NaN.
		c := g.m.conditional(g.tables[f].Name, g.refs[x].col, g.refs[it.ref[ue]].col, it.buckets[v].Count(), ub)
		dense := !finite(fan)
		for bv := range out.cnt {
			lo, hi := c.rows[bv], c.rows[bv+1]
			cols, ps := c.cols[lo:hi], c.p[lo:hi]
			if out.cnt[bv] > 0 {
				var factor float64
				if dense {
					for bu, p := range c.dense[bv*ub : (bv+1)*ub] {
						factor += p * fan[bu]
					}
				} else {
					for k, bu := range cols {
						factor += ps[k] * fan[bu]
					}
				}
				out.cnt[bv] *= factor
			}
			if bound {
				var w float64
				for k, bu := range cols {
					if ps[k] > 0 && fan[bu] > w {
						w = fan[bu]
					}
				}
				out.maxF[bv] *= w
			}
		}
	}
	return out
}

// finite reports whether every entry of xs is finite.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || x != x {
			return false
		}
	}
	return true
}

// domain fills out with the per-bucket key-domain size of variable v: the
// largest unfiltered distinct count among its attached tables (the
// dimension side of a PK–FK join dominates).
func (g *Graph) domain(it *item, v uint8, out []float64) {
	for b := range out {
		out[b] = 0
	}
	for es := it.byVar[v]; es != 0; es &= es - 1 {
		ndv := g.refs[it.ref[bits.TrailingZeros64(es)]].ks.NDV
		for b := range out {
			if ndv[b] > out[b] {
				out[b] = ndv[b]
			}
		}
	}
}

// effNDV estimates the distinct key count of the subtree at bucket b.
func effNDV(ks *KeyStats, sub []float64, b int) float64 {
	base := min(sub[b], ks.Cnt[b])
	ndv := cardinal.Cardenas(ks.NDV[b], max(ks.Cnt[b], 1), max(base, 0))
	if sub[b] > 0 && ndv < 1 {
		ndv = 1
	}
	if ndv > ks.NDV[b] {
		ndv = ks.NDV[b]
	}
	return ndv
}

// ndvOf returns msg's per-bucket effective NDV, building it on first use.
// A bucket without rows (cnt ≤ 0) stays 0: combine drops the bucket before
// it reads that side's NDV, so no Cardenas pow() is paid for it.
func (g *Graph) ndvOf(msg *message) []float64 {
	g.mu.Lock()
	ndv := msg.ndv
	var fresh []float64
	if ndv == nil {
		fresh = g.alloc(len(msg.cnt))
	}
	g.mu.Unlock()
	if ndv != nil {
		return ndv
	}
	for b, c := range msg.cnt {
		if c <= 0 {
			fresh[b] = 0
			continue
		}
		fresh[b] = effNDV(msg.ks, msg.cnt, b)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if msg.ndv == nil {
		msg.ndv = fresh
	}
	return msg.ndv
}

// combine folds every factor at the root variable into the final
// estimate: Σ_b minNDV(b)·∏_i freq_i(b) (estimate) or
// Σ_b min_i[cnt_i(b)·∏_{j≠i} maxF_j(b)] (bound).
func (g *Graph) combine(it *item, ws *scratch, root int) (float64, error) {
	var sideBuf [MaxGraph]*message
	sides := sideBuf[:0]
	for es := it.byVar[root]; es != 0; es &= es - 1 {
		sub, err := g.down(it, ws, bits.TrailingZeros64(es), 0)
		if err != nil {
			return 0, err
		}
		sides = append(sides, sub)
	}
	if len(sides) == 1 {
		var total float64
		for _, c := range sides[0].cnt {
			total += c
		}
		return total, nil
	}
	nb := it.buckets[root].Count()
	var total float64
	if g.mode == ModeBound {
		for b := 0; b < nb; b++ {
			best := math.Inf(1)
			for i := range sides {
				term := sides[i].cnt[b]
				for j := range sides {
					if j != i {
						term *= sides[j].maxF[b]
					}
				}
				if term < best {
					best = term
				}
			}
			if !math.IsInf(best, 1) {
				total += best
			}
		}
		return total, nil
	}
	// Probabilistic overlap: the expected number of key values shared by
	// every side is ∏ effNDV_i / domain^(k-1) (capped by the smallest
	// side), and each shared value contributes the product of the sides'
	// average frequencies. The key domain is the largest unfiltered
	// distinct count among the sides' tables.
	var ndvBuf [MaxGraph][]float64
	ndvs := ndvBuf[:len(sides)]
	for i, side := range sides {
		ndvs[i] = g.ndvOf(side)
	}
	for b := 0; b < nb; b++ {
		minNDV := math.Inf(1)
		match := 1.0
		freqProd := 1.0
		ok := true
		for i := range sides {
			if sides[i].cnt[b] <= 0 {
				ok = false
				break
			}
			ndv := ndvs[i][b]
			if ndv < 1e-9 {
				ok = false
				break
			}
			if ndv < minNDV {
				minNDV = ndv
			}
			match *= ndv
			freqProd *= sides[i].cnt[b] / ndv
		}
		if !ok {
			continue
		}
		var domain float64
		for i := range sides {
			if n := sides[i].ks.NDV[b]; n > domain {
				domain = n
			}
		}
		d := max(domain, 1)
		for i := 1; i < len(sides); i++ {
			match /= d
		}
		if match > minNDV {
			match = minNDV
		}
		total += match * freqProd
	}
	return total, nil
}

// condKey names one oriented key-tree conditional of a table.
type condKey struct {
	table, v, u string
	vb, ub      int
}

// conditional is one oriented key-tree conditional P(b_u | b_v): the
// row-major dense matrix, and its non-zero entries row by row — row bv's
// are cols[rows[bv]:rows[bv+1]] with probabilities p at the same indices,
// in ascending u-bucket order.
type conditional struct {
	dense []float64
	rows  []int32
	cols  []int32
	p     []float64
}

// conditional returns P(b_u | b_v) between two key columns of one table,
// derived from the stored pairwise joint (or independence when the pair
// was not materialized — the key-tree reduction's fallback edge). It
// depends on nothing but the model, so it is built on first use and kept,
// immutable, with the loaded model: nothing is paid at load time, and a
// retrained model starts empty.
func (m *Model) conditional(table, colV, colU string, vb, ub int) *conditional {
	key := condKey{table, colV, colU, vb, ub}
	m.derivedMu.RLock()
	out := m.conds[key]
	m.derivedMu.RUnlock()
	if out != nil {
		return out
	}
	out = m.buildConditional(table, colV, colU, vb, ub)
	m.derivedMu.Lock()
	defer m.derivedMu.Unlock()
	if prev := m.conds[key]; prev != nil {
		return prev
	}
	if m.conds == nil {
		m.conds = map[condKey]*conditional{}
	}
	m.conds[key] = out
	return out
}

func (m *Model) buildConditional(table, colV, colU string, vb, ub int) *conditional {
	out := &conditional{dense: m.denseConditional(table, colV, colU, vb, ub), rows: make([]int32, vb+1)}
	for bv := 0; bv < vb; bv++ {
		for bu, p := range out.dense[bv*ub : (bv+1)*ub] {
			if p != 0 {
				out.cols = append(out.cols, int32(bu))
				out.p = append(out.p, p)
			}
		}
		out.rows[bv+1] = int32(len(out.cols))
	}
	return out
}

// denseConditional builds the row-major vb×ub matrix of P(b_u | b_v).
func (m *Model) denseConditional(table, colV, colU string, vb, ub int) []float64 {
	a, b := orderedPair(colV, colU)
	joint, ok := m.PairJoint[pairName(table, a, b)]
	out := make([]float64, vb*ub)
	if !ok {
		// Independence fallback: P(b_u) from u's marginal.
		ksU := m.Keys[keyName(table, colU)]
		var total float64
		for _, c := range ksU.Cnt {
			total += c
		}
		if total == 0 {
			total = 1
		}
		for bv := 0; bv < vb; bv++ {
			for bu := 0; bu < ub; bu++ {
				out[bv*ub+bu] = ksU.Cnt[bu] / total
			}
		}
		return out
	}
	// joint is (a-buckets)×(b-buckets); orient to (v,u).
	transposed := colV != a
	for bv := 0; bv < vb; bv++ {
		var rowSum float64
		for bu := 0; bu < ub; bu++ {
			var j float64
			if transposed {
				j = joint[bu*vb+bv]
			} else {
				j = joint[bv*ub+bu]
			}
			out[bv*ub+bu] = j
			rowSum += j
		}
		if rowSum > 0 {
			for bu := 0; bu < ub; bu++ {
				out[bv*ub+bu] /= rowSum
			}
		}
	}
	return out
}
