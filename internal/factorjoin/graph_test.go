package factorjoin

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// randomJoin is one generated query over a generated database: a random
// tree of table instances (aliases of a handful of physical tables, so
// self-joins occur), tables with up to three join keys (multi-key factors
// with pairwise joints, some with all-zero rows and columns), per-instance
// filters including ones that empty every bucket, key ranges that leave
// buckets empty, instances whose counts are huge or infinite in some
// buckets, and the conditions in shuffled order and orientation.
type randomJoin struct {
	db     *storage.Database
	model  *Model
	tables []QueryTable
	// conds[:tree] are the tree's conditions; the rest are extras only the
	// error cases select.
	conds   []Cond
	tree    int
	filters map[string]func(t *storage.Table, row int) bool
	// huge maps a binding to the count its source reports in every third
	// bucket (1e308 or +Inf), so products overflow and fan-outs go
	// non-finite.
	huge map[string]float64
}

func (q *randomJoin) source() CountSource {
	exact := exactSource(q.db, q.filters)
	return func(binding, table, column string, bounds []float64) ([]float64, error) {
		cnt, err := exact(binding, table, column, bounds)
		if v, ok := q.huge[binding]; ok && err == nil {
			for b := 0; b < len(cnt); b += 3 {
				cnt[b] = v
			}
		}
		return cnt, err
	}
}

func newRandomJoin(t *testing.T, seed int64, n int) *randomJoin {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nclasses := 2 + rng.Intn(3)
	domain := make([]int, nclasses)
	for c := range domain {
		domain[c] = 20 + rng.Intn(100)
	}
	type keyCol struct {
		name  string
		class int
	}
	nphys := 2 + rng.Intn(4)
	keys := make([][]keyCol, nphys)
	members := make([][]catalog.ColumnRef, nclasses)
	db := storage.NewDatabase()
	for p := range keys {
		name := fmt.Sprintf("t%d", p)
		specs := []storage.ColumnSpec{{Name: "attr", Kind: types.KindInt64}}
		for k := 0; k < 1+rng.Intn(3); k++ {
			kc := keyCol{name: fmt.Sprintf("k%d", k), class: rng.Intn(nclasses)}
			keys[p] = append(keys[p], kc)
			members[kc.class] = append(members[kc.class], catalog.ColumnRef{Table: name, Column: kc.name})
			specs = append(specs, storage.ColumnSpec{Name: kc.name, Kind: types.KindInt64})
		}
		b := storage.NewBuilder(name, specs)
		// Each key draws from a window of its class domain, so some tables
		// leave whole buckets of the shared layout empty.
		lo := make([]int, len(keys[p]))
		span := make([]int, len(keys[p]))
		for k, kc := range keys[p] {
			span[k] = 1 + rng.Intn(domain[kc.class])
			lo[k] = rng.Intn(domain[kc.class] - span[k] + 1)
		}
		for r := 0; r < 40+rng.Intn(360); r++ {
			row := []types.Datum{types.Int(int64(rng.Intn(10)))}
			for k := range keys[p] {
				v := lo[k] + rng.Intn(span[k])
				if rng.Intn(3) == 0 { // skew toward the window's low end
					v = lo[k] + rng.Intn(span[k]/4+1)
				}
				row = append(row, types.Int(int64(v)))
			}
			b.Append(row)
		}
		db.Add(b.Build())
	}
	var classes []catalog.JoinClass
	for _, m := range members {
		if len(m) > 0 {
			classes = append(classes, catalog.JoinClass{Members: m})
		}
	}
	model, err := Build(db, classes, 8+rng.Intn(17))
	if err != nil {
		t.Fatal(err)
	}

	q := &randomJoin{db: db, model: model, filters: map[string]func(*storage.Table, int) bool{}}
	phys := make([]int, 0, n)
	addInstance := func(p int) {
		bind := fmt.Sprintf("a%d", len(phys))
		phys = append(phys, p)
		q.tables = append(q.tables, QueryTable{Binding: bind, Name: fmt.Sprintf("t%d", p)})
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // unfiltered
		case 4: // nothing survives: every bucket empty
			q.filters[bind] = func(*storage.Table, int) bool { return false }
		default:
			limit := int64(1 + rng.Intn(9))
			q.filters[bind] = func(t *storage.Table, r int) bool { return t.ColByName("attr").Value(r).I < limit }
		}
	}
	addInstance(rng.Intn(nphys))
	for len(phys) < n {
		j := rng.Intn(len(phys))
		jc := keys[phys[j]][rng.Intn(len(keys[phys[j]]))]
		// Any physical table with a key of the same class can attach; the
		// instance's own table always qualifies (a self-join).
		var options [][2]int
		for p := range keys {
			for k, kc := range keys[p] {
				if kc.class == jc.class {
					options = append(options, [2]int{p, k})
				}
			}
		}
		pick := options[rng.Intn(len(options))]
		addInstance(pick[0])
		c := Cond{
			LBind: q.tables[j].Binding, LCol: jc.name,
			RBind: q.tables[len(phys)-1].Binding, RCol: keys[pick[0]][pick[1]].name,
		}
		if rng.Intn(2) == 0 {
			c = Cond{LBind: c.RBind, LCol: c.RCol, RBind: c.LBind, RCol: c.LCol}
		}
		q.conds = append(q.conds, c)
	}
	rng.Shuffle(len(q.conds), func(i, j int) { q.conds[i], q.conds[j] = q.conds[j], q.conds[i] })
	q.tree = len(q.conds)
	q.hostile(seed)
	// Extras: a same-class condition between two random instances (closes a
	// cycle, joins a variable twice, or merely repeats an equivalence), a
	// condition on a column without bucket stats, and one naming a binding
	// that is not in the query.
	a, b := rng.Intn(n), rng.Intn(n)
	ka := keys[phys[a]][rng.Intn(len(keys[phys[a]]))]
	for _, kb := range keys[phys[b]] {
		if a != b && kb.class == ka.class {
			q.conds = append(q.conds, Cond{LBind: q.tables[a].Binding, LCol: ka.name, RBind: q.tables[b].Binding, RCol: kb.name})
			break
		}
	}
	q.conds = append(q.conds,
		Cond{LBind: q.tables[0].Binding, LCol: "attr", RBind: q.tables[n-1].Binding, RCol: keys[phys[n-1]][0].name},
		Cond{LBind: q.tables[0].Binding, LCol: keys[phys[0]][0].name, RBind: "ghost", RCol: "k0"},
	)
	return q
}

// hostile zeroes a random row and column of every pairwise joint (a
// conditional row with no entries, and a u-bucket no row reaches) and, on
// two seeds in three, makes one instance's source report 1e308 or +Inf in
// every third bucket. It draws from its own generator, so the query and
// data above are those the seed always produced.
func (q *randomJoin) hostile(seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, name := range sortedKeys(q.model.PairJoint) {
		joint := q.model.PairJoint[name]
		parts := strings.Split(name, "|") // table, colA, colB
		na := q.model.BucketsByClass[q.model.Keys[keyName(parts[0], parts[1])].Class].Count()
		nb := len(joint) / na
		row, col := rng.Intn(na), rng.Intn(nb)
		for j := 0; j < nb; j++ {
			joint[row*nb+j] = 0
		}
		for i := 0; i < na; i++ {
			joint[i*nb+col] = 0
		}
	}
	q.huge = map[string]float64{}
	switch seed % 3 {
	case 1:
		q.huge[q.tables[rng.Intn(len(q.tables))].Binding] = 1e308
	case 2:
		q.huge[q.tables[rng.Intn(len(q.tables))].Binding] = math.Inf(1)
	}
}

// connectedSubsets returns every connected subset of at least two tables
// under the tree conditions, with the mask of conditions internal to it.
func (q *randomJoin) connectedSubsets() (tables, conds []uint64) {
	n := len(q.tables)
	idx := map[string]int{}
	for i, t := range q.tables {
		idx[t.Binding] = i
	}
	ends := make([][2]int, q.tree)
	for j, c := range q.conds[:q.tree] {
		ends[j] = [2]int{idx[c.LBind], idx[c.RBind]}
	}
	for mask := uint64(1); mask < 1<<n; mask++ {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		var cm uint64
		for j, e := range ends {
			if mask&(1<<e[0]) != 0 && mask&(1<<e[1]) != 0 {
				cm |= 1 << j
			}
		}
		// A subset of a tree is connected iff it keeps tables-1 conditions.
		if bits.OnesCount64(cm) == bits.OnesCount64(mask)-1 {
			tables, conds = append(tables, mask), append(conds, cm)
		}
	}
	return tables, conds
}

// touched returns the tables the selected conditions join (bindings that are
// not in the query select nothing).
func (q *randomJoin) touched(cm uint64) uint64 {
	var tm uint64
	for j, c := range q.conds {
		if cm&(1<<j) == 0 {
			continue
		}
		for i, t := range q.tables {
			if t.Binding == c.LBind || t.Binding == c.RBind {
				tm |= 1 << i
			}
		}
	}
	return tm
}

// selection materializes a (tables, conds) mask pair as the lists a
// per-subset Estimate call receives.
func (q *randomJoin) selection(tm, cm uint64) ([]QueryTable, []Cond) {
	var ts []QueryTable
	for i, t := range q.tables {
		if tm&(1<<i) != 0 {
			ts = append(ts, t)
		}
	}
	var cs []Cond
	for j, c := range q.conds {
		if cm&(1<<j) != 0 {
			cs = append(cs, c)
		}
	}
	return ts, cs
}

// sameOutcome reports whether two (estimate, error) results are the same
// bits or the same error text.
func sameOutcome(a float64, aerr error, b float64, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestCompiledGraphMatchesReference is the bit-identity property: for
// random tree join graphs of 2–8 tables, every connected subset sized
// through one shared compiled graph — whatever order the subsets arrive
// in — equals, bit for bit and in both modes, a per-subset Model.Estimate
// (its own graph, nothing shared) and the uncompiled reference algorithm;
// so does every other selection of conditions over the same tables, sized
// through the same warm graphs; and malformed selections fail with the same
// errors.
func TestCompiledGraphMatchesReference(t *testing.T) {
	seeds := 84
	if testing.Short() {
		seeds = 28
	}
	var nontrivial, shared, alternative int
	for seed := 0; seed < seeds; seed++ {
		n := 2 + seed%7
		q := newRandomJoin(t, int64(seed), n)
		src := q.source()
		tms, cms := q.connectedSubsets()
		for _, mode := range []Mode{ModeEstimate, ModeBound} {
			up, err := q.model.Compile(q.tables, q.conds, src, mode)
			if err != nil {
				t.Fatal(err)
			}
			down, err := q.model.Compile(q.tables, q.conds, src, mode)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(tms))
			for k := range tms {
				ts, cs := q.selection(tms[k], cms[k])
				ref, err := refEstimate(q.model, ts, cs, src, mode)
				if err != nil {
					t.Fatalf("seed %d: reference failed on a connected subset: %v", seed, err)
				}
				want[k] = ref
				if ref > 0 {
					nontrivial++
				}
				alone, err := q.model.Estimate(ts, cs, src, mode)
				if !sameOutcome(alone, err, ref, nil) {
					t.Fatalf("seed %d mode %d subset %b: Model.Estimate = %v (%v), reference %v", seed, mode, tms[k], alone, err, ref)
				}
				got, err := up.Estimate(tms[k], cms[k])
				if !sameOutcome(got, err, ref, nil) {
					t.Fatalf("seed %d mode %d subset %b: shared graph = %v (%v), reference %v", seed, mode, tms[k], got, err, ref)
				}
			}
			// Largest subsets first: their messages are then computed
			// before the smaller subsets that share them.
			for k := len(tms) - 1; k >= 0; k-- {
				got, err := down.Estimate(tms[k], cms[k])
				if !sameOutcome(got, err, want[k], nil) {
					t.Fatalf("seed %d mode %d subset %b (descending): shared graph = %v (%v), reference %v", seed, mode, tms[k], got, err, want[k])
				}
			}
			if len(up.msgs) < len(tms) {
				shared++ // fewer messages than subsets: some were reused
			}

			// Condition sub-selections: the same tables joined through a
			// different choice of conditions (the same-class extra swapped
			// for a tree condition is another tree over the same tables)
			// must not be answered from the other choice's messages. Both
			// graphs are warm with every all-internal-conditions subtree.
			alts := q.tree
			if len(q.conds) == q.tree+3 {
				alts++ // the same-class extra exists
			}
			walk := func(g *Graph, cm uint64) {
				tm := q.touched(cm)
				ts, cs := q.selection(tm, cm)
				alone, aerr := q.model.Estimate(ts, cs, src, mode)
				got, gerr := g.Estimate(tm, cm)
				if !sameOutcome(got, gerr, alone, aerr) {
					t.Fatalf("seed %d mode %d selection %b/%b: shared graph = %v (%v), its own graph %v (%v)", seed, mode, tm, cm, got, gerr, alone, aerr)
				}
				if aerr != nil {
					// Not a connected tree. (The reference is not consulted:
					// it has no connectivity check, and sizes one component
					// of a forest-plus-cycle or never returns from it.)
					return
				}
				if ref, rerr := refEstimate(q.model, ts, cs, src, mode); !sameOutcome(alone, nil, ref, rerr) {
					t.Fatalf("seed %d mode %d selection %b/%b: Model.Estimate = %v, reference %v (%v)", seed, mode, tm, cm, alone, ref, rerr)
				}
				if cm&^all(q.tree) != 0 {
					alternative++
				}
			}
			for cm := uint64(1); cm < 1<<alts; cm++ {
				walk(up, cm)
				walk(down, 1<<alts-cm)
			}

			// Malformed selections: same error (or same value, where an
			// extra condition only repeats an equivalence) on all three
			// paths.
			full, tree := all(n), all(q.tree)
			var bad [][2]uint64
			for j := q.tree; j < len(q.conds); j++ {
				bad = append(bad, [2]uint64{full, tree | 1<<j}) // cyclic, no stats, unknown binding
			}
			for j := 0; j < q.tree; j++ {
				bad = append(bad, [2]uint64{full, tree &^ (1 << j)}) // disconnected
			}
			for i := 0; i < n; i++ {
				bad = append(bad,
					[2]uint64{full &^ (1 << i), tree}, // conditions on a table left out
					[2]uint64{1 << i, tree},           // a single table
				)
			}
			bad = append(bad, [2]uint64{full, 0})
			for _, sel := range bad {
				ts, cs := q.selection(sel[0], sel[1])
				ref, rerr := refEstimate(q.model, ts, cs, src, mode)
				alone, aerr := q.model.Estimate(ts, cs, src, mode)
				got, gerr := up.Estimate(sel[0], sel[1])
				if !sameOutcome(alone, aerr, ref, rerr) || !sameOutcome(got, gerr, ref, rerr) {
					t.Fatalf("seed %d mode %d selection %b/%b: reference %v (%v), Model.Estimate %v (%v), shared graph %v (%v)",
						seed, mode, sel[0], sel[1], ref, rerr, alone, aerr, got, gerr)
				}
			}
		}
	}
	if nontrivial == 0 || shared == 0 || alternative == 0 {
		t.Fatalf("degenerate generator: %d non-zero estimates, %d graphs that reused a message, %d alternative trees estimated", nontrivial, shared, alternative)
	}
}

// TestCompiledGraphConcurrent drives one compiled graph from 8 goroutines,
// each sizing every connected subset in its own order, and requires every
// answer to equal the reference (run under -race -count=10 in CI: shared
// messages, vectors and NDV vectors are published first-writer-wins).
func TestCompiledGraphConcurrent(t *testing.T) {
	for seed := int64(100); seed < 104; seed++ {
		q := newRandomJoin(t, seed, 8)
		src := q.source()
		tms, cms := q.connectedSubsets()
		for _, mode := range []Mode{ModeEstimate, ModeBound} {
			want := make([]float64, len(tms))
			for k := range tms {
				ts, cs := q.selection(tms[k], cms[k])
				ref, err := refEstimate(q.model, ts, cs, src, mode)
				if err != nil {
					t.Fatal(err)
				}
				want[k] = ref
			}
			g, err := q.model.Compile(q.tables, q.conds, src, mode)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					order := rand.New(rand.NewSource(seed*31 + int64(w))).Perm(len(tms))
					for _, k := range order {
						got, err := g.Estimate(tms[k], cms[k])
						if !sameOutcome(got, err, want[k], nil) {
							t.Errorf("seed %d mode %d worker %d subset %b: %v (%v), want %v", seed, mode, w, tms[k], got, err, want[k])
							return
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
}

// TestCompileLimits checks the bitmask bounds are reported, not overrun.
func TestCompileLimits(t *testing.T) {
	m, _ := toyModel(t)
	tables := make([]QueryTable, MaxGraph+1)
	for i := range tables {
		tables[i] = QueryTable{Binding: fmt.Sprintf("f%d", i), Name: "fact"}
	}
	conds := make([]Cond, MaxGraph)
	for i := range conds {
		conds[i] = Cond{LBind: tables[i].Binding, LCol: "dim_id", RBind: tables[i+1].Binding, RCol: "dim_id"}
	}
	if _, err := m.Estimate(tables, conds, nil, ModeEstimate); err == nil {
		t.Error("65 tables must be refused")
	}
	// 64 tables are fine, but a chain of 63 conditions over 64 distinct
	// columns each side would need 126 interned columns.
	wide := make([]Cond, 40)
	for i := range wide {
		wide[i] = Cond{LBind: tables[i].Binding, LCol: fmt.Sprintf("c%d", i), RBind: tables[i+1].Binding, RCol: fmt.Sprintf("d%d", i)}
	}
	if _, err := m.Estimate(tables[:MaxGraph], wide, nil, ModeEstimate); err == nil {
		t.Error("more than 64 distinct join columns must be refused")
	}
}

// TestGraphEstimateAllocs gates the per-subset cost on a warm graph: once
// a subset's messages are memoized, sizing it again — or any subset made
// of the same subtrees — builds its factor graph on the stack and
// allocates nothing.
func TestGraphEstimateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are only meaningful without -race")
	}
	q := newRandomJoin(t, 7, 8)
	tms, cms := q.connectedSubsets()
	for _, mode := range []Mode{ModeEstimate, ModeBound} {
		g, err := q.model.Compile(q.tables, q.conds, q.source(), mode)
		if err != nil {
			t.Fatal(err)
		}
		sizeAll := func() {
			for k := range tms {
				if _, err := g.Estimate(tms[k], cms[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		sizeAll()
		if allocs := testing.AllocsPerRun(20, sizeAll); allocs != 0 {
			t.Errorf("mode %d: re-sizing %d subsets of a warm graph allocates %.1f times, want 0", mode, len(tms), allocs)
		}
	}
}

// TestCrossClassConditionErrors: a condition that equates key columns of
// two join classes with different bucket layouts (50 buckets and 5) has no
// bucket-aligned answer. Both modes and both orientations refuse it with
// an error, so the caller falls back the same way each time, where each
// side's stats used to be read through the other side's layout.
func TestCrossClassConditionErrors(t *testing.T) {
	db := storage.NewDatabase()
	for _, spec := range []struct {
		name string
		ndv  int
	}{{"wide", 400}, {"narrow", 5}} {
		b := storage.NewBuilder(spec.name, []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}})
		for r := 0; r < 1000; r++ {
			b.Append([]types.Datum{types.Int(int64(r % spec.ndv))})
		}
		db.Add(b.Build())
	}
	m, err := Build(db, []catalog.JoinClass{
		{Members: []catalog.ColumnRef{{Table: "wide", Column: "k"}}},
		{Members: []catalog.ColumnRef{{Table: "narrow", Column: "k"}}},
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if w, n := m.BucketsByClass["wide.k"].Count(), m.BucketsByClass["narrow.k"].Count(); w != 50 || n != 5 {
		t.Fatalf("layouts of %d and %d buckets, want 50 and 5", w, n)
	}
	tables := []QueryTable{{Binding: "w", Name: "wide"}, {Binding: "n", Name: "narrow"}}
	src := exactSource(db, nil)
	for _, mode := range []Mode{ModeEstimate, ModeBound} {
		for _, c := range []Cond{
			{LBind: "w", LCol: "k", RBind: "n", RCol: "k"},
			{LBind: "n", LCol: "k", RBind: "w", RCol: "k"},
		} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("mode %d, %s.%s = %s.%s: panic %v", mode, c.LBind, c.LCol, c.RBind, c.RCol, p)
					}
				}()
				if est, err := m.Estimate(tables, []Cond{c}, src, mode); err == nil {
					t.Errorf("mode %d, %s.%s = %s.%s: estimate %g, want an error", mode, c.LBind, c.LCol, c.RBind, c.RCol, est)
				}
			}()
		}
	}
}
