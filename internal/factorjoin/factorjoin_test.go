package factorjoin

import (
	"math"
	"math/rand"
	"testing"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// exactSource returns a CountSource computing exact filtered bucket counts
// straight from storage — isolating the inference math from BN error.
func exactSource(db *storage.Database, filters map[string]func(t *storage.Table, row int) bool) CountSource {
	return func(binding, table, column string, bounds []float64) ([]float64, error) {
		t := db.Table(table)
		b := &Buckets{Bounds: bounds}
		out := make([]float64, b.Count())
		col := t.ColByName(column)
		keep := filters[binding]
		for r := 0; r < t.NumRows(); r++ {
			if keep != nil && !keep(t, r) {
				continue
			}
			if i := b.BucketOf(col.Numeric(r)); i >= 0 {
				out[i]++
			}
		}
		return out, nil
	}
}

// trueJoin2 brute-forces |A ⋈ B| on one condition with optional filters.
func trueJoin2(a, b *storage.Table, ac, bc string, fa, fb func(t *storage.Table, row int) bool) float64 {
	counts := map[float64]float64{}
	colA := a.ColByName(ac)
	for r := 0; r < a.NumRows(); r++ {
		if fa != nil && !fa(a, r) {
			continue
		}
		counts[colA.Numeric(r)]++
	}
	var total float64
	colB := b.ColByName(bc)
	for r := 0; r < b.NumRows(); r++ {
		if fb != nil && !fb(b, r) {
			continue
		}
		total += counts[colB.Numeric(r)]
	}
	return total
}

func toyModel(t testing.TB) (*Model, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Toy(datagen.Config{Scale: 2, Seed: 31})
	m, err := Build(ds.DB, ds.Schema.JoinClasses(), 50)
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

func TestBuildProducesConsistentStats(t *testing.T) {
	m, ds := toyModel(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.BuildSeconds <= 0 || m.SizeBytes() <= 0 {
		t.Error("build metadata missing")
	}
	ks := m.Keys["fact.dim_id"]
	if ks == nil {
		t.Fatal("missing fact.dim_id stats")
	}
	var total float64
	for b := range ks.Cnt {
		total += ks.Cnt[b]
		if ks.NDV[b] > ks.Cnt[b] || ks.MaxF[b] > ks.Cnt[b] {
			t.Errorf("bucket %d inconsistent: cnt=%g ndv=%g maxf=%g", b, ks.Cnt[b], ks.NDV[b], ks.MaxF[b])
		}
	}
	if total != float64(ds.DB.Table("fact").NumRows()) {
		t.Errorf("bucket counts sum to %g, want %d", total, ds.DB.Table("fact").NumRows())
	}
}

func TestBucketOf(t *testing.T) {
	b := &Buckets{Bounds: []float64{0, 10, 20, 30}}
	cases := map[float64]int{0: 0, 9: 0, 10: 1, 29: 2, 30: 2, -1: -1, 40: -1}
	for v, want := range cases {
		if got := b.BucketOf(v); got != want {
			t.Errorf("BucketOf(%g) = %d, want %d", v, got, want)
		}
	}
}

func TestTwoTableJoinEstimate(t *testing.T) {
	m, ds := toyModel(t)
	tables := []QueryTable{{Binding: "f", Name: "fact"}, {Binding: "d", Name: "dim"}}
	conds := []Cond{{LBind: "f", LCol: "dim_id", RBind: "d", RCol: "id"}}
	src := exactSource(ds.DB, nil)
	truth := trueJoin2(ds.DB.Table("fact"), ds.DB.Table("dim"), "dim_id", "id", nil, nil)

	est, err := m.Estimate(tables, conds, src, ModeEstimate)
	if err != nil {
		t.Fatal(err)
	}
	if q := qerr(est, truth); q > 1.5 {
		t.Errorf("estimate %g vs truth %g (q=%g)", est, truth, q)
	}
	bound, err := m.Estimate(tables, conds, src, ModeBound)
	if err != nil {
		t.Fatal(err)
	}
	if bound < truth*(1-1e-9) {
		t.Errorf("bound %g below truth %g", bound, truth)
	}
}

func TestFilteredJoin(t *testing.T) {
	m, ds := toyModel(t)
	fdim := func(tab *storage.Table, r int) bool { return tab.ColByName("cat").Value(r).I <= 2 }
	ffact := func(tab *storage.Table, r int) bool { return tab.ColByName("val").Value(r).I < 40 }
	filters := map[string]func(*storage.Table, int) bool{"d": fdim, "f": ffact}
	tables := []QueryTable{{Binding: "f", Name: "fact"}, {Binding: "d", Name: "dim"}}
	conds := []Cond{{LBind: "f", LCol: "dim_id", RBind: "d", RCol: "id"}}
	src := exactSource(ds.DB, filters)
	truth := trueJoin2(ds.DB.Table("fact"), ds.DB.Table("dim"), "dim_id", "id",
		func(tab *storage.Table, r int) bool { return ffact(tab, r) },
		func(tab *storage.Table, r int) bool { return fdim(tab, r) })
	est, err := m.Estimate(tables, conds, src, ModeEstimate)
	if err != nil {
		t.Fatal(err)
	}
	if q := qerr(est, truth); q > 2.5 {
		t.Errorf("filtered estimate %g vs truth %g (q=%g)", est, truth, q)
	}
}

// TestBoundPropertyRandom is the key property test: with exact bucket
// counts, ModeBound must never fall below the true join size.
func TestBoundPropertyRandom(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDatabase()
		mk := func(name string, n, dom int) {
			b := storage.NewBuilder(name, []storage.ColumnSpec{{Name: "k", Kind: types.KindInt64}})
			for i := 0; i < n; i++ {
				// Mixed skew: half Zipf-ish, half uniform.
				var v int64
				if rng.Intn(2) == 0 {
					v = int64(rng.Intn(dom/4 + 1))
				} else {
					v = int64(rng.Intn(dom + 1))
				}
				b.Append([]types.Datum{types.Int(v)})
			}
			db.Add(b.Build())
		}
		mk("r", 200+rng.Intn(400), 50+rng.Intn(100))
		mk("s", 200+rng.Intn(400), 50+rng.Intn(100))
		schema := catalog.NewSchema()
		class := catalog.JoinClass{Members: []catalog.ColumnRef{
			{Table: "r", Column: "k"}, {Table: "s", Column: "k"},
		}}
		_ = schema
		m, err := Build(db, []catalog.JoinClass{class}, 16)
		if err != nil {
			t.Fatal(err)
		}
		tables := []QueryTable{{Binding: "r", Name: "r"}, {Binding: "s", Name: "s"}}
		conds := []Cond{{LBind: "r", LCol: "k", RBind: "s", RCol: "k"}}
		truth := trueJoin2(db.Table("r"), db.Table("s"), "k", "k", nil, nil)
		bound, err := m.Estimate(tables, conds, exactSource(db, nil), ModeBound)
		if err != nil {
			t.Fatal(err)
		}
		if bound < truth*(1-1e-9) {
			t.Errorf("seed %d: bound %g < truth %g", seed, bound, truth)
		}
		est, err := m.Estimate(tables, conds, exactSource(db, nil), ModeEstimate)
		if err != nil {
			t.Fatal(err)
		}
		if q := qerr(est, truth); q > 20 {
			t.Errorf("seed %d: estimate %g vs truth %g (q=%g)", seed, est, truth, q)
		}
	}
}

// chainDB builds a 3-table chain a ←(a_id) b (id)→ c(b_id) where b carries
// two join keys (exercising the pairwise key-tree reduction).
func chainDB(t testing.TB, seed int64) (*storage.Database, []catalog.JoinClass) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	ab := storage.NewBuilder("a", []storage.ColumnSpec{{Name: "id", Kind: types.KindInt64}})
	for i := 1; i <= 40; i++ {
		ab.Append([]types.Datum{types.Int(int64(i))})
	}
	db.Add(ab.Build())
	bb := storage.NewBuilder("b", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "a_id", Kind: types.KindInt64},
	})
	for i := 1; i <= 300; i++ {
		// a_id correlates with id range (keys are dependent).
		aid := int64(1 + (i*40/300+rng.Intn(8))%40)
		bb.Append([]types.Datum{types.Int(int64(i)), types.Int(aid)})
	}
	db.Add(bb.Build())
	cb := storage.NewBuilder("c", []storage.ColumnSpec{{Name: "b_id", Kind: types.KindInt64}})
	for i := 0; i < 500; i++ {
		cb.Append([]types.Datum{types.Int(int64(1 + rng.Intn(300)))})
	}
	db.Add(cb.Build())
	classes := []catalog.JoinClass{
		{Members: []catalog.ColumnRef{{Table: "a", Column: "id"}, {Table: "b", Column: "a_id"}}},
		{Members: []catalog.ColumnRef{{Table: "b", Column: "id"}, {Table: "c", Column: "b_id"}}},
	}
	return db, classes
}

func trueChainJoin(db *storage.Database) float64 {
	// |a ⋈ b ⋈ c| with PK a.id and PK b.id: every b row matches exactly
	// one a row (a_id ∈ [1,40]); count c rows per b.id.
	cCount := map[int64]float64{}
	c := db.Table("c").ColByName("b_id")
	for r := 0; r < db.Table("c").NumRows(); r++ {
		cCount[c.Value(r).I]++
	}
	var total float64
	b := db.Table("b")
	for r := 0; r < b.NumRows(); r++ {
		total += cCount[b.ColByName("id").Value(r).I]
	}
	return total
}

func TestChainJoinWithMultiKeyTable(t *testing.T) {
	db, classes := chainDB(t, 3)
	m, err := Build(db, classes, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PairJoint) != 1 {
		t.Fatalf("PairJoint entries = %d, want 1 (table b)", len(m.PairJoint))
	}
	tables := []QueryTable{
		{Binding: "a", Name: "a"}, {Binding: "b", Name: "b"}, {Binding: "c", Name: "c"},
	}
	conds := []Cond{
		{LBind: "a", LCol: "id", RBind: "b", RCol: "a_id"},
		{LBind: "b", LCol: "id", RBind: "c", RCol: "b_id"},
	}
	truth := trueChainJoin(db)
	est, err := m.Estimate(tables, conds, exactSource(db, nil), ModeEstimate)
	if err != nil {
		t.Fatal(err)
	}
	if q := qerr(est, truth); q > 3 {
		t.Errorf("chain estimate %g vs truth %g (q=%g)", est, truth, q)
	}
	bound, err := m.Estimate(tables, conds, exactSource(db, nil), ModeBound)
	if err != nil {
		t.Fatal(err)
	}
	if bound < truth*(1-1e-6) {
		t.Errorf("chain bound %g below truth %g", bound, truth)
	}
}

func TestCyclicGraphRejected(t *testing.T) {
	m, _ := toyModel(t)
	tables := []QueryTable{{Binding: "f", Name: "fact"}, {Binding: "d", Name: "dim"}}
	conds := []Cond{
		{LBind: "f", LCol: "dim_id", RBind: "d", RCol: "id"},
		{LBind: "f", LCol: "id", RBind: "d", RCol: "cat"},
	}
	if _, err := m.Estimate(tables, conds, nil, ModeEstimate); err == nil {
		t.Error("cyclic factor graph must be rejected")
	}
}

func TestUnknownKeyRejected(t *testing.T) {
	m, ds := toyModel(t)
	tables := []QueryTable{{Binding: "f", Name: "fact"}, {Binding: "d", Name: "dim"}}
	conds := []Cond{{LBind: "f", LCol: "val", RBind: "d", RCol: "cat"}}
	if _, err := m.Estimate(tables, conds, exactSource(ds.DB, nil), ModeEstimate); err == nil {
		t.Error("join on non-bucketed columns must be rejected")
	}
}

func TestBoundsForAndKeyColumns(t *testing.T) {
	m, _ := toyModel(t)
	if _, ok := m.BoundsFor("fact", "dim_id"); !ok {
		t.Error("fact.dim_id must have bounds")
	}
	if _, ok := m.BoundsFor("fact", "val"); ok {
		t.Error("fact.val is not a key")
	}
	cols := m.KeyColumns("fact")
	if len(cols) != 1 || cols[0] != "dim_id" {
		t.Errorf("KeyColumns(fact) = %v", cols)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m, ds := toyModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	tables := []QueryTable{{Binding: "f", Name: "fact"}, {Binding: "d", Name: "dim"}}
	conds := []Cond{{LBind: "f", LCol: "dim_id", RBind: "d", RCol: "id"}}
	a, _ := m.Estimate(tables, conds, exactSource(ds.DB, nil), ModeEstimate)
	b, _ := m2.Estimate(tables, conds, exactSource(ds.DB, nil), ModeEstimate)
	if a != b {
		t.Errorf("roundtrip changed estimate: %g vs %g", a, b)
	}
}

func TestValidateCorruption(t *testing.T) {
	m, _ := toyModel(t)
	for _, ks := range m.Keys {
		ks.MaxF[0] = ks.Cnt[0] + 100
		break
	}
	if err := m.Validate(); err == nil {
		t.Error("maxF > cnt must fail validation")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("garbage must fail decode")
	}
	empty := &Model{}
	if err := empty.Validate(); err == nil {
		t.Error("empty model must fail validation")
	}

	// Pairwise joints: a corrupt one must fail Validate, and so Decode,
	// instead of indexing past the slice at the first query through it.
	db, classes := chainDB(t, 3)
	chain, err := Build(db, classes, 20)
	if err != nil {
		t.Fatal(err)
	}
	const pair = "b|a_id|id"
	good := chain.PairJoint[pair]
	for name, corrupt := range map[string]map[string][]float64{
		"truncated":        {pair: good[:len(good)-1]},
		"too long":         {pair: append(append([]float64(nil), good...), 0)},
		"NaN count":        {pair: withEntry(good, 3, math.NaN())},
		"infinite count":   {pair: withEntry(good, 0, math.Inf(1))},
		"negative count":   {pair: withEntry(good, len(good)-1, -1)},
		"unordered name":   {"b|id|a_id": good},
		"one column":       {"b|id": good},
		"unknown column":   {"b|a_id|zz": good},
		"column elsewhere": {"c|a_id|id": good},
	} {
		m := &Model{BucketsByClass: chain.BucketsByClass, Keys: chain.Keys, PairJoint: corrupt}
		if err := m.Validate(); err == nil {
			t.Errorf("pair joint %s must fail validation", name)
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("pair joint %s must fail decode", name)
		}
	}
	if err := chain.Validate(); err != nil {
		t.Errorf("built model fails validation: %v", err)
	}
}

// withEntry returns a copy of xs with xs[i] = v.
func withEntry(xs []float64, i int, v float64) []float64 {
	out := append([]float64(nil), xs...)
	out[i] = v
	return out
}

func TestEstimateArgumentChecks(t *testing.T) {
	m, ds := toyModel(t)
	if _, err := m.Estimate(nil, nil, exactSource(ds.DB, nil), ModeEstimate); err == nil {
		t.Error("no tables must error")
	}
	tables := []QueryTable{{Binding: "f", Name: "fact"}, {Binding: "d", Name: "dim"}}
	if _, err := m.Estimate(tables, nil, exactSource(ds.DB, nil), ModeEstimate); err == nil {
		t.Error("no conditions must error")
	}
}

func qerr(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

// TestBoundPropertyChainRandom extends the bound property to random
// 3-table chains with a multi-key middle table.
func TestBoundPropertyChainRandom(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		db, classes := chainDB(t, seed)
		m, err := Build(db, classes, 12)
		if err != nil {
			t.Fatal(err)
		}
		tables := []QueryTable{
			{Binding: "a", Name: "a"}, {Binding: "b", Name: "b"}, {Binding: "c", Name: "c"},
		}
		conds := []Cond{
			{LBind: "a", LCol: "id", RBind: "b", RCol: "a_id"},
			{LBind: "b", LCol: "id", RBind: "c", RCol: "b_id"},
		}
		truth := trueChainJoin(db)
		bound, err := m.Estimate(tables, conds, exactSource(db, nil), ModeBound)
		if err != nil {
			t.Fatal(err)
		}
		if bound < truth*(1-1e-6) {
			t.Errorf("seed %d: bound %g < truth %g", seed, bound, truth)
		}
	}
}

func TestNDVForExposure(t *testing.T) {
	m, _ := toyModel(t)
	ndv, ok := m.NDVFor("fact", "dim_id")
	if !ok || len(ndv) == 0 {
		t.Fatal("NDVFor must expose key bucket NDVs")
	}
	if _, ok := m.NDVFor("fact", "val"); ok {
		t.Error("non-key column must not expose NDVs")
	}
}
