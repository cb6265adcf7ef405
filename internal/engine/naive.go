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

	// Aggregate with plain maps.
	at := func(ref ColRef, tuple []int32) types.Datum {
		i := bindingIndex(q, ref.Tab)
		return valueAt(q, i, tuple[i], ref.Col)
	}
	var tuple []int32
	fetch := func(a, c int) types.Datum { return at(q.Aggs[a].Cols[c], tuple) }
	res := &Result{}
	for _, item := range q.Stmt.Items {
		res.Columns = append(res.Columns, item.String())
	}
	if len(q.GroupBy) == 0 {
		accs := newAccs(q.Aggs)
		for _, tuple = range match {
			updateAccs(accs, q.Aggs, fetch, 1)
		}
		res.Rows = [][]types.Datum{buildOutputRow(q, nil, accs)}
		return res, nil
	}
	type group struct {
		key  []types.Datum
		accs []aggAcc
	}
	// Groups chain under their key's hash and are told apart by keysEqual:
	// the oracle never lets a hash stand in for equality.
	var groups []*group
	byHash := map[uint64][]*group{}
	for _, tuple = range match {
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
			g = &group{key: key, accs: newAccs(q.Aggs)}
			byHash[h] = append(byHash[h], g)
			groups = append(groups, g)
		}
		updateAccs(g.accs, q.Aggs, fetch, 1)
	}
	for _, g := range groups {
		res.Rows = append(res.Rows, buildOutputRow(q, g.key, g.accs))
	}
	sortRows(res.Rows)
	return res, nil
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
