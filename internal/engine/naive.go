package engine

import (
	"fmt"

	"bytecard/internal/sqlparse"
	"bytecard/internal/types"
)

// RunNaive executes the query with a deliberately simple row-at-a-time
// nested-loop interpreter: no optimizer, no hash joins, no columnar
// readers. It exists purely as a reference oracle — integration tests
// cross-check every optimized execution against it on small datasets.
func (e *Engine) RunNaive(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := e.Analyze(stmt)
	if err != nil {
		return nil, err
	}

	// Enumerate the filtered cross product, checking join conditions.
	var match [][]int32
	var rec func(level int, tuple []int32)
	rec = func(level int, tuple []int32) {
		if level == len(q.Tables) {
			cp := make([]int32, len(tuple))
			copy(cp, tuple)
			match = append(match, cp)
			return
		}
		t := q.Tables[level]
		for i := 0; i < t.Table.NumRows(); i++ {
			row := int32(i)
			if t.Filter != nil {
				ok := t.Filter.Eval(func(_, col string) types.Datum {
					//bytecard:rawscan-ok brute-force oracle verifies results, not I/O accounting
					return t.Table.ColByName(col).Value(int(row))
				})
				if !ok {
					continue
				}
			}
			joinsOK := true
			for _, j := range q.Joins {
				li, ri := bindingIndex(q, j.LeftTab), bindingIndex(q, j.RightTab)
				if li > level || ri > level || (li != level && ri != level) {
					continue
				}
				var lv, rv types.Datum
				if li == level {
					lv = valueAt(q, li, row, j.LeftCol)
				} else {
					lv = valueAt(q, li, tuple[li], j.LeftCol)
				}
				if ri == level {
					rv = valueAt(q, ri, row, j.RightCol)
				} else {
					rv = valueAt(q, ri, tuple[ri], j.RightCol)
				}
				if !lv.Equal(rv) {
					joinsOK = false
					break
				}
			}
			if !joinsOK {
				continue
			}
			rec(level+1, append(tuple, row))
		}
	}
	rec(0, nil)

	// Aggregate with plain Datum accumulators of the oracle's own.
	at := func(ref ColRef, tuple []int32) types.Datum {
		i := bindingIndex(q, ref.Tab)
		return valueAt(q, i, tuple[i], ref.Col)
	}
	fold := func(accs []naiveAcc, tuple []int32) {
		for i := range accs {
			accs[i].add(q.Aggs[i], func(c int) types.Datum { return at(q.Aggs[i].Cols[c], tuple) })
		}
	}
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	if len(q.GroupBy) == 0 {
		accs := newNaiveAccs(q.Aggs)
		for _, tuple := range match {
			fold(accs, tuple)
		}
		res.Rows = [][]types.Datum{naiveOutputRow(q, nil, accs)}
		return res, nil
	}
	type group struct {
		key  []types.Datum
		accs []naiveAcc
	}
	// Groups chain under their key's hash and are told apart by keysEqual:
	// the oracle never lets a hash stand in for equality.
	var groups []*group
	byHash := map[uint64][]*group{}
	for _, tuple := range match {
		key := make([]types.Datum, len(q.GroupBy))
		for i, g := range q.GroupBy {
			key[i] = at(g, tuple)
		}
		h := hashKey(key)
		var g *group
		for _, c := range byHash[h] {
			if keysEqual(c.key, key) {
				g = c
				break
			}
		}
		if g == nil {
			g = &group{key: key, accs: newNaiveAccs(q.Aggs)}
			byHash[h] = append(byHash[h], g)
			groups = append(groups, g)
		}
		fold(g.accs, tuple)
	}
	for _, g := range groups {
		res.Rows = append(res.Rows, naiveOutputRow(q, g.key, g.accs))
	}
	sortRows(res.Rows)
	return res, nil
}

// naiveAcc is the oracle's accumulator for one aggregate of one group,
// over plain Datums: COUNT DISTINCT chains key tuples under their hash and
// compares them with keysEqual.
type naiveAcc struct {
	count    int64
	sum      float64
	min, max types.Datum
	seen     bool
	distinct map[uint64][][]types.Datum
	ndv      int64
}

func newNaiveAccs(aggs []AggSpec) []naiveAcc {
	accs := make([]naiveAcc, len(aggs))
	for i, a := range aggs {
		if a.Kind == AggCountDistinct {
			accs[i].distinct = map[uint64][][]types.Datum{}
		}
	}
	return accs
}

// add folds one tuple into a; col(c) is the tuple's value of spec.Cols[c].
func (a *naiveAcc) add(spec AggSpec, col func(c int) types.Datum) {
	switch spec.Kind {
	case AggCountStar:
		a.count++
	case AggCountDistinct:
		key := make([]types.Datum, len(spec.Cols))
		for c := range key {
			key[c] = col(c)
		}
		h := hashKey(key)
		for _, k := range a.distinct[h] {
			if keysEqual(k, key) {
				return
			}
		}
		a.distinct[h] = append(a.distinct[h], key)
		a.ndv++
	case AggSum, AggAvg:
		a.sum += col(0).AsFloat()
		a.count++
	case AggMin, AggMax:
		v := col(0)
		if !a.seen {
			a.min, a.max, a.seen = v, v, true
			return
		}
		if v.Less(a.min) {
			a.min = v
		}
		if a.max.Less(v) {
			a.max = v
		}
	}
}

func (a *naiveAcc) result(kind AggKind) types.Datum {
	switch kind {
	case AggCountStar:
		return types.Int(a.count)
	case AggCountDistinct:
		return types.Int(a.ndv)
	case AggSum:
		return types.Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return types.Float(0)
		}
		return types.Float(a.sum / float64(a.count))
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	default:
		panic("engine: unknown aggregate kind")
	}
}

func naiveOutputRow(q *Query, key []types.Datum, accs []naiveAcc) []types.Datum {
	row := make([]types.Datum, len(q.outPlan))
	for i, item := range q.outPlan {
		if item.isAgg {
			row[i] = accs[item.aggIdx].result(q.Aggs[item.aggIdx].Kind)
		} else {
			row[i] = key[item.groupIdx]
		}
	}
	return row
}

func hashKey(key []types.Datum) uint64 {
	var h uint64 = 1469598103934665603
	for _, d := range key {
		h = h*1099511628211 ^ d.Hash64()
	}
	return h
}

// keysEqual reports whether two key tuples are equal. Ragged lengths and
// non-comparable kind pairs compare unequal instead of panicking (or
// silently misjudging when a is a prefix of b).
func keysEqual(a, b []types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K && !(a[i].IsNumeric() && b[i].IsNumeric()) {
			return false
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func bindingIndex(q *Query, binding string) int {
	for i, t := range q.Tables {
		if t.Binding == binding {
			return i
		}
	}
	panic(fmt.Sprintf("engine: unknown binding %s", binding))
}

func valueAt(q *Query, tableIdx int, row int32, col string) types.Datum {
	//bytecard:rawscan-ok brute-force oracle verifies results, not I/O accounting
	return q.Tables[tableIdx].Table.ColByName(col).Value(int(row))
}
