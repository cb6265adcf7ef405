package factorjoin

import (
	"fmt"
	"math"

	"bytecard/internal/cardinal"
)

// This file is the property tests' oracle: FactorJoin inference as it was
// before join graphs were compiled — string-keyed graph construction per
// call, every message computed in place, nothing shared between calls. It
// is kept verbatim apart from two things: the memo parameters are gone,
// and a condition whose binding names no table returns the
// "unknown binding" error where the original could dereference nil first.
// The compiled path must reproduce its floats bit for bit.

type refVar struct {
	id      int
	buckets *Buckets
	factors []*refFactor
}

type refFactor struct {
	binding, name string
	vars          []*refVar
	colOf         map[int]string // var id → column name
}

type refMsg struct {
	ks   *KeyStats
	cnt  []float64
	maxF []float64
}

func refEstimate(m *Model, tables []QueryTable, conds []Cond, src CountSource, mode Mode) (float64, error) {
	if len(tables) < 2 || len(conds) == 0 {
		return 0, fmt.Errorf("factorjoin: need at least two tables and one condition")
	}
	vars, err := refBuildGraph(m, tables, conds)
	if err != nil {
		return 0, err
	}
	root := vars[0]
	for _, v := range vars[1:] {
		if len(v.factors) > len(root.factors) {
			root = v
		}
	}
	est, err := refCombineAtVar(m, root, src, mode)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(est) || est < 0 {
		est = 0
	}
	return est, nil
}

func refBuildGraph(m *Model, tables []QueryTable, conds []Cond) ([]*refVar, error) {
	type colRef struct{ bind, col string }
	parent := map[colRef]colRef{}
	var find func(colRef) colRef
	find = func(x colRef) colRef {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	var refs []colRef
	seenRef := map[colRef]bool{}
	addRef := func(r colRef) {
		if !seenRef[r] {
			seenRef[r] = true
			refs = append(refs, r)
		}
	}
	for _, c := range conds {
		addRef(colRef{c.LBind, c.LCol})
		addRef(colRef{c.RBind, c.RCol})
		a, b := find(colRef{c.LBind, c.LCol}), find(colRef{c.RBind, c.RCol})
		if a != b {
			parent[a] = b
		}
	}
	varOf := map[colRef]*refVar{}
	var vars []*refVar
	factorOf := map[string]*refFactor{}
	var factors []*refFactor
	for _, t := range tables {
		f := &refFactor{binding: t.Binding, name: t.Name, colOf: map[int]string{}}
		factorOf[t.Binding] = f
		factors = append(factors, f)
	}
	edges := 0
	for _, ref := range refs {
		root := find(ref)
		v, ok := varOf[root]
		if !ok {
			if factorOf[root.bind] == nil {
				return nil, fmt.Errorf("factorjoin: condition references unknown binding %s", root.bind)
			}
			ks, found := m.Keys[keyName(factorOf[root.bind].name, root.col)]
			if !found {
				return nil, fmt.Errorf("factorjoin: no bucket stats for %s.%s", factorOf[root.bind].name, root.col)
			}
			v = &refVar{id: len(vars), buckets: m.BucketsByClass[ks.Class]}
			varOf[root] = v
			vars = append(vars, v)
		}
		f := factorOf[ref.bind]
		if f == nil {
			return nil, fmt.Errorf("factorjoin: condition references unknown binding %s", ref.bind)
		}
		if _, dup := f.colOf[v.id]; dup {
			return nil, fmt.Errorf("factorjoin: table %s joins variable twice (cyclic graph)", ref.bind)
		}
		if _, ok := m.Keys[keyName(f.name, ref.col)]; !ok {
			return nil, fmt.Errorf("factorjoin: no bucket stats for %s.%s", f.name, ref.col)
		}
		f.colOf[v.id] = ref.col
		f.vars = append(f.vars, v)
		v.factors = append(v.factors, f)
		edges++
	}
	nodes := len(vars) + len(factors)
	if edges != nodes-1 {
		return nil, fmt.Errorf("factorjoin: join graph is cyclic (%d edges, %d nodes)", edges, nodes)
	}
	for _, f := range factors {
		if len(f.vars) == 0 {
			return nil, fmt.Errorf("factorjoin: table %s participates in no join condition", f.binding)
		}
	}
	return vars, nil
}

func refDownCount(m *Model, f *refFactor, v *refVar, src CountSource, mode Mode) (refMsg, error) {
	out, err := refLeafMsg(m, f, v, src)
	if err != nil {
		return refMsg{}, err
	}
	for _, u := range f.vars {
		if u.id == v.id {
			continue
		}
		fan := make([]float64, u.buckets.Count())
		worst := make([]float64, u.buckets.Count())
		domain := refVarDomain(m, u)
		for i := range fan {
			fan[i] = 1
			worst[i] = 1
		}
		for _, g := range u.factors {
			if g == f {
				continue
			}
			sub, err := refDownCount(m, g, u, src, mode)
			if err != nil {
				return refMsg{}, err
			}
			for b := range fan {
				if mode == ModeBound {
					fan[b] *= sub.maxF[b]
				} else {
					fan[b] *= sub.cnt[b] / math.Max(domain[b], 1)
				}
				worst[b] *= sub.maxF[b]
			}
		}
		cond := refConditional(m, f, v, u)
		ub := u.buckets.Count()
		for bv := range out.cnt {
			row := cond[bv*ub : (bv+1)*ub]
			if out.cnt[bv] > 0 {
				var factor float64
				for bu, p := range row {
					factor += p * fan[bu]
				}
				out.cnt[bv] *= factor
			}
			var w float64
			for bu, p := range row {
				if p > 0 && worst[bu] > w {
					w = worst[bu]
				}
			}
			out.maxF[bv] *= w
		}
	}
	return out, nil
}

func refLeafMsg(m *Model, f *refFactor, v *refVar, src CountSource) (refMsg, error) {
	col := f.colOf[v.id]
	ks := m.Keys[keyName(f.name, col)]
	cnt, err := src(f.binding, f.name, col, v.buckets.Bounds)
	if err != nil {
		return refMsg{}, err
	}
	if len(cnt) != v.buckets.Count() {
		return refMsg{}, fmt.Errorf("factorjoin: count source returned %d buckets for %s.%s, want %d", len(cnt), f.name, col, v.buckets.Count())
	}
	return refMsg{ks: ks, cnt: append([]float64(nil), cnt...), maxF: append([]float64(nil), ks.MaxF...)}, nil
}

func refVarDomain(m *Model, v *refVar) []float64 {
	out := make([]float64, v.buckets.Count())
	for _, f := range v.factors {
		ks := m.Keys[keyName(f.name, f.colOf[v.id])]
		for b := range out {
			if ks.NDV[b] > out[b] {
				out[b] = ks.NDV[b]
			}
		}
	}
	return out
}

func refEffNDV(ks *KeyStats, sub []float64, b int) float64 {
	base := math.Min(sub[b], ks.Cnt[b])
	ndv := cardinal.Cardenas(ks.NDV[b], math.Max(ks.Cnt[b], 1), math.Max(base, 0))
	if sub[b] > 0 && ndv < 1 {
		ndv = 1
	}
	if ndv > ks.NDV[b] {
		ndv = ks.NDV[b]
	}
	return ndv
}

func refConditional(m *Model, f *refFactor, v, u *refVar) []float64 {
	colV, colU := f.colOf[v.id], f.colOf[u.id]
	a, b := orderedPair(colV, colU)
	joint, ok := m.PairJoint[pairName(f.name, a, b)]
	vb, ub := v.buckets.Count(), u.buckets.Count()
	out := make([]float64, vb*ub)
	if !ok {
		ksU := m.Keys[keyName(f.name, colU)]
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

func refCombineAtVar(m *Model, v *refVar, src CountSource, mode Mode) (float64, error) {
	var sides []refMsg
	for _, f := range v.factors {
		sub, err := refDownCount(m, f, v, src, mode)
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
	domain := refVarDomain(m, v)
	var total float64
	for b := 0; b < v.buckets.Count(); b++ {
		if mode == ModeBound {
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
			continue
		}
		minNDV := math.Inf(1)
		match := 1.0
		freqProd := 1.0
		ok := true
		for i := range sides {
			if sides[i].cnt[b] <= 0 {
				ok = false
				break
			}
			ndv := refEffNDV(sides[i].ks, sides[i].cnt, b)
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
		d := math.Max(domain[b], 1)
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
