package core_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bytecard/internal/cardinal"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/loader"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
	"bytecard/internal/sqlparse"
	"bytecard/internal/types"
)

// pipeline trains Toy models into a temp store and loads them into a fresh
// inference engine, returning the wired estimator and execution engine.
func pipeline(t *testing.T) (*core.InferenceEngine, *core.Estimator, *engine.Engine, *datagen.Dataset) {
	t.Helper()
	return pipelineFor(t, "toy", datagen.Toy(datagen.Config{Scale: 3, Seed: 41}))
}

// pipelineFor is pipeline over any generated dataset.
func pipelineFor(t *testing.T, name string, ds *datagen.Dataset) (*core.InferenceEngine, *core.Estimator, *engine.Engine, *datagen.Dataset) {
	t.Helper()
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	forge := modelforge.New(name, ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows:  4000,
		BucketCount: 40,
		Seed:        1,
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	infer := core.NewInferenceEngine(core.Options{})
	ld := loader.New(store, infer)
	if _, err := ld.RefreshOnce(); err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(infer, cardinal.NewSketchEstimator(ds.DB, 32))
	loader.LoadSamples(ds.DB, est, 4000, 7)
	exec := engine.New(ds.DB, ds.Schema, est)
	return infer, est, exec, ds
}

func analyzed(t *testing.T, e *engine.Engine, sql string) *engine.Query {
	t.Helper()
	q, err := e.Analyze(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPipelineLoadsAllModels(t *testing.T) {
	infer, _, _, _ := pipeline(t)
	snap := infer.Snapshot()
	if snap.Tables != 2 {
		t.Errorf("loaded tables = %d, want 2", snap.Tables)
	}
	if !snap.HasFJ || !snap.HasRBX {
		t.Errorf("missing models: fj=%v rbx=%v", snap.HasFJ, snap.HasRBX)
	}
	if snap.Loads < 4 {
		t.Errorf("loads = %d", snap.Loads)
	}
}

func TestBNCapturesCorrelationSketchMisses(t *testing.T) {
	_, est, exec, ds := pipeline(t)
	// flag is determined by val: truth of (val>=50 AND flag=0) is 0.
	q := analyzed(t, exec, "SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 0")
	got := est.EstimateFilter(q.Tables[0])
	n := float64(ds.DB.Table("fact").NumRows())
	if got > n*0.03 {
		t.Errorf("ByteCard estimate %g should be near 0 (n=%g); AVI would give ~%g", got, n, n*0.25)
	}
	// And the satisfiable side estimates accurately.
	q2 := analyzed(t, exec, "SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 1")
	got2 := est.EstimateFilter(q2.Tables[0])
	truth, err := exec.TrueCardinality("SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 1")
	if err != nil {
		t.Fatal(err)
	}
	if q := cardinal.QError(got2, truth); q > 1.5 {
		t.Errorf("estimate %g vs truth %g (q=%g)", got2, truth, q)
	}
}

func TestJoinEstimateAccuracy(t *testing.T) {
	_, est, exec, _ := pipeline(t)
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 2"
	q := analyzed(t, exec, sql)
	got := est.EstimateJoin(q.Tables, q.Joins)
	truth, err := exec.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qe := cardinal.QError(got, truth); qe > 3 {
		t.Errorf("join estimate %g vs truth %g (q=%g)", got, truth, qe)
	}
	if est.Fallbacks() > 0 {
		t.Errorf("join estimation fell back %d times", est.Fallbacks())
	}
}

func TestGroupNDVEstimate(t *testing.T) {
	_, est, exec, _ := pipeline(t)
	sql := "SELECT val, COUNT(*) FROM fact GROUP BY val"
	q := analyzed(t, exec, sql)
	got := est.EstimateGroupNDV(q)
	res, err := exec.Run("SELECT COUNT(DISTINCT val) FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := res.ScalarInt()
	if qe := cardinal.QError(got, float64(truth)); qe > 2.5 {
		t.Errorf("group NDV %g vs truth %d (q=%g)", got, truth, qe)
	}
}

func TestEndToEndQueriesCorrect(t *testing.T) {
	_, _, exec, ds := pipeline(t)
	ref := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	sqls := []string{
		"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < 40",
		"SELECT d.cat, COUNT(*), COUNT(DISTINCT f.flag) FROM fact f, dim d WHERE f.dim_id = d.id GROUP BY d.cat",
		"SELECT COUNT(*) FROM fact WHERE val < 10 OR flag = 1",
	}
	for _, sql := range sqls {
		a, err := exec.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		b, err := ref.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Errorf("%s: rows %d vs %d", sql, len(a.Rows), len(b.Rows))
			continue
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j].AsFloat() != b.Rows[i][j].AsFloat() &&
					!(a.Rows[i][j].K == b.Rows[i][j].K && a.Rows[i][j].Equal(b.Rows[i][j])) {
					t.Errorf("%s: cell [%d][%d] %v vs %v", sql, i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
}

func TestFallbackWhenModelsMissing(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 5})
	infer := core.NewInferenceEngine(core.Options{})
	est := core.NewEstimator(infer, cardinal.NewSketchEstimator(ds.DB, 32))
	exec := engine.New(ds.DB, ds.Schema, est)
	res, err := exec.Run("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.ScalarInt(); err != nil {
		t.Fatal(err)
	}
	if est.Fallbacks() == 0 {
		t.Error("expected fallbacks without loaded models")
	}
	if est.Calls() == 0 {
		t.Error("expected calls to be counted")
	}
}

func TestDisableForcesFallback(t *testing.T) {
	infer, est, exec, _ := pipeline(t)
	q := analyzed(t, exec, "SELECT COUNT(*) FROM fact WHERE val < 10")
	before := est.Fallbacks()
	infer.Admin().Disable("bn:fact")
	_ = est.EstimateFilter(q.Tables[0])
	if est.Fallbacks() != before+1 {
		t.Error("disabled model must fall back")
	}
	infer.Admin().Enable("bn:fact")
	_ = est.EstimateFilter(q.Tables[0])
	if est.Fallbacks() != before+1 {
		t.Error("re-enabled model must not fall back")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	infer := core.NewInferenceEngine(core.Options{})
	err := infer.LoadModel(core.Artifact{
		Name: "x", Kind: core.KindBN, Table: "t", Timestamp: time.Now(), Data: []byte("junk"),
	})
	if err == nil {
		t.Error("garbage BN must be rejected")
	}
	if infer.Snapshot().Rejects != 0 && !strings.Contains(err.Error(), "validation") {
		t.Logf("reject recorded: %v", err)
	}
}

func TestLoadModelSizeChecker(t *testing.T) {
	// Train one tiny model, then load it under a 1-byte per-model cap.
	_, _, _, ds := pipeline(t)
	_ = ds
	store, _ := modelstore.Open(t.TempDir())
	ds2 := datagen.Toy(datagen.Config{Scale: 1, Seed: 6})
	forge := modelforge.New("toy", ds2.DB, ds2.Schema, store, modelforge.Config{
		SampleRows: 500, BucketCount: 10,
		Seed: 2,
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	infer := core.NewInferenceEngine(core.Options{MaxModelBytes: 1})
	ld := loader.New(store, infer)
	if _, err := ld.RefreshOnce(); err == nil {
		t.Error("oversized models must be rejected by the size checker")
	}
	if infer.Snapshot().Tables != 0 {
		t.Error("no BN should have been installed")
	}

	// The registry bound never rejects and never splits a table: three
	// shards of fact, together past the bound, are all served and evict
	// dim; reloading dim then evicts all of fact.
	fact, err := store.Get("toy/bn/fact")
	if err != nil {
		t.Fatal(err)
	}
	dim, err := store.Get("toy/bn/dim")
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(fact.Data))
	infer = core.NewInferenceEngine(core.Options{MaxTotalBytes: 2 * size})
	if err := infer.LoadModel(dim); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 3; shard++ {
		a := fact
		a.Name, a.Shard = fmt.Sprintf("toy/bn/fact#%d", shard), shard
		if err := infer.LoadModel(a); err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	if ctxs, ok := infer.Models().BN("fact"); !ok || len(ctxs) != 3 {
		t.Errorf("fact serves %d shards (ok=%v), want 3", len(ctxs), ok)
	}
	if _, ok := infer.Models().BN("dim"); ok {
		t.Error("dim must have been evicted")
	}
	if snap := infer.Snapshot(); snap.Tables != 1 || snap.TotalSize != 3*size || snap.Rejects != 0 {
		t.Errorf("after the shards: %+v, want fact alone at %d bytes", snap, 3*size)
	}
	if err := infer.LoadModel(dim); err != nil {
		t.Fatal(err)
	}
	if _, ok := infer.Models().BN("fact"); ok {
		t.Error("fact must have been evicted whole")
	}
	if snap := infer.Snapshot(); snap.Tables != 1 || snap.TotalSize != int64(len(dim.Data)) {
		t.Errorf("after reloading dim: %+v", snap)
	}
}

func TestLRUEviction(t *testing.T) {
	store, _ := modelstore.Open(t.TempDir())
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 7})
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 500, BucketCount: 10,
		Seed: 3,
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	// Find BN artifact sizes to pick a cap that holds exactly one table.
	manifests, _ := store.List()
	var maxBN int64
	for _, m := range manifests {
		if m.Kind == core.KindBN && m.SizeBytes > maxBN {
			maxBN = m.SizeBytes
		}
	}
	infer := core.NewInferenceEngine(core.Options{MaxTotalBytes: maxBN + 1})
	ld := loader.New(store, infer)
	_, _ = ld.RefreshOnce()
	snap := infer.Snapshot()
	if snap.Evictions == 0 {
		t.Errorf("expected LRU evictions with cap %d (total loaded %d)", maxBN+1, snap.TotalSize)
	}
	if snap.TotalSize > maxBN+1 {
		t.Errorf("total size %d exceeds cap", snap.TotalSize)
	}
}

func TestTimestampStalenessIgnored(t *testing.T) {
	infer, _, _, _ := pipeline(t)
	stamp := infer.Admin().State("bn:fact").Timestamp
	if stamp.IsZero() {
		t.Fatal("missing timestamp for fact model")
	}
	// Re-loading an older artifact must be a no-op.
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 8})
	store, _ := modelstore.Open(t.TempDir())
	old := time.Now().Add(-24 * time.Hour)
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 300, BucketCount: 10,
		Seed: 4, Now: func() time.Time { return old },
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	art, err := store.Get("toy/bn/fact")
	if err != nil {
		t.Fatal(err)
	}
	if err := infer.LoadModel(art); err != nil {
		t.Fatal(err)
	}
	if !infer.Admin().State("bn:fact").Timestamp.Equal(stamp) {
		t.Error("stale artifact must not replace newer model")
	}
}

func TestFeaturizeSQLAndAST(t *testing.T) {
	_, est, _, ds := pipeline(t)
	feat := core.NewFeaturizer(ds.DB, ds.Schema)
	sql := "SELECT COUNT(*) FROM fact WHERE val < 25"
	fv, err := feat.FeaturizeSQLQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	bySQL, err := est.Estimate(fv)
	if err != nil {
		t.Fatal(err)
	}
	fv2, err := feat.FeaturizeAST(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	byAST, err := est.Estimate(fv2)
	if err != nil {
		t.Fatal(err)
	}
	if bySQL != byAST {
		t.Errorf("SQL path %g != AST path %g", bySQL, byAST)
	}
	if fv.Query() == nil {
		t.Error("feature vector must expose its query")
	}
	if _, err := feat.FeaturizeSQLQuery("not sql"); err == nil {
		t.Error("bad SQL must fail featurization")
	}
}

func TestEstimateNDVStrict(t *testing.T) {
	_, est, _, ds := pipeline(t)
	feat := core.NewFeaturizer(ds.DB, ds.Schema)
	fv, err := feat.FeaturizeSQLQuery("SELECT COUNT(DISTINCT fact.val) FROM fact WHERE fact.flag = 1")
	if err != nil {
		t.Fatal(err)
	}
	est1, err := est.EstimateNDV(fv)
	if err != nil {
		t.Fatal(err)
	}
	if est1 < 1 || math.IsNaN(est1) {
		t.Errorf("NDV estimate = %g", est1)
	}
	// Without a distinct aggregate or grouping, NDV estimation must error.
	fv2, _ := feat.FeaturizeSQLQuery("SELECT COUNT(*) FROM fact")
	if _, err := est.EstimateNDV(fv2); err == nil {
		t.Error("expected error for NDV over plain COUNT(*)")
	}
}

func TestEstimateStrictWithoutModels(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 9})
	infer := core.NewInferenceEngine(core.Options{})
	est := core.NewEstimator(infer, engine.HeuristicEstimator{})
	feat := core.NewFeaturizer(ds.DB, ds.Schema)
	fv, _ := feat.FeaturizeSQLQuery("SELECT COUNT(*) FROM fact WHERE val < 25")
	if _, err := est.Estimate(fv); err == nil {
		t.Error("strict estimate must fail without models")
	}
	fvj, _ := feat.FeaturizeSQLQuery("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id")
	if _, err := est.Estimate(fvj); err == nil {
		t.Error("strict join estimate must fail without models")
	}
}

func TestArtifactValidate(t *testing.T) {
	bad := []core.Artifact{
		{},
		{Name: "x", Kind: "bogus"},
		{Name: "x", Kind: core.KindBN}, // BN without table
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("artifact %+v must fail validation", a)
		}
	}
	good := core.Artifact{Name: "x", Kind: core.KindRBX}
	if err := good.Validate(); err != nil {
		t.Errorf("valid artifact rejected: %v", err)
	}
}

// TestConcurrentEstimationWhileLoading exercises the lock-free inference
// contract: four clients plan while a loader alternates two fact BNs that
// estimate differently. Every plan — fresh or replayed from the plan
// cache — must carry exactly the estimates of one single-threaded plan
// against one of the two, never a mix of generations.
func TestConcurrentEstimationWhileLoading(t *testing.T) {
	infer, _, exec, ds := pipeline(t)
	withPlanCache(infer, exec)
	variants := factVariants(t, ds)
	stamp := func(i int) core.Artifact {
		a := variants[i%2]
		a.Timestamp = a.Timestamp.Add(time.Duration(i) * time.Second)
		return a
	}
	var want [2][]uint64
	for i := range want {
		if err := infer.LoadModel(stamp(i)); err != nil {
			t.Fatal(err)
		}
		want[i] = freshEstimates(t, exec, churnSQL)
	}
	if slices.Equal(want[0], want[1]) {
		t.Fatal("the two fact BNs must estimate differently")
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q, err := exec.Analyze(sqlparse.MustParse(churnSQL))
				var p *engine.Plan
				if err == nil {
					p, err = exec.Plan(q)
				}
				if err == nil {
					if got := estimatesOf(p); !slices.Equal(got, want[0]) && !slices.Equal(got, want[1]) {
						err = fmt.Errorf("plan (cache hit %v) estimated %v, want %v or %v", p.CacheHit, got, want[0], want[1])
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 2; i < 42 && len(errs) == 0; i++ {
		if err := infer.LoadModel(stamp(i)); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// constHook answers every guarded model call with one value.
type constHook float64

func (constHook) Before(string)                       {}
func (h constHook) Transform(string, float64) float64 { return float64(h) }

// TestEstimatorAnswersStayInBounds is the estimator's boundary check. The
// engine.CardEstimator methods return float64, so no type keeps their
// answers bounded: whatever the models say — far too much, zero, or a
// subnormal — each method must return a finite value inside the bounds of
// what it estimates, without falling back.
func TestEstimatorAnswersStayInBounds(t *testing.T) {
	infer, est, exec, ds := pipeline(t)
	filter := analyzed(t, exec, "SELECT COUNT(*) FROM fact WHERE val < 40")
	join := analyzed(t, exec, "SELECT d.cat, COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < 40 GROUP BY d.cat")
	preds := []expr.Pred{{Table: "fact", Col: "val", Op: expr.OpLt, Val: types.Int(40)}}
	rows := float64(ds.DB.Table("fact").NumRows())
	cartesian := rows * float64(ds.DB.Table("dim").NumRows())
	for _, model := range []float64{1e300, 0, 5e-324} {
		est.Guard.SetHook(constHook(model))
		infer.FlushCaches()
		fallbacks := est.Fallbacks()
		got := []struct {
			method    string
			v, lo, hi float64
		}{
			{"EstimateFilter", est.EstimateFilter(filter.Tables[0]), 1, rows},
			{"EstimateConj", est.EstimateConj(filter.Tables[0], preds), 0, 1},
			{"EstimateJoin", est.EstimateJoin(join.Tables, join.Joins), 1, cartesian},
			{"EstimateJoinBatch", est.EstimateJoinBatch([]engine.JoinBatchItem{{Tables: join.Tables, Conds: join.Joins}}, 1)[0], 1, cartesian},
			{"EstimateGroupNDV", est.EstimateGroupNDV(join), 1, cartesian},
		}
		for _, g := range got {
			if !(g.v >= g.lo && g.v <= g.hi) {
				t.Errorf("models answering %g: %s = %g, outside [%g, %g]", model, g.method, g.v, g.lo, g.hi)
			}
		}
		if est.Fallbacks() != fallbacks {
			t.Errorf("models answering %g: %d fallbacks, want the answers clamped", model, est.Fallbacks()-fallbacks)
		}
	}
}

// TestOrFilterInJoinEstimation verifies inclusion–exclusion flows through
// the FactorJoin count source.
func TestOrFilterInJoinEstimation(t *testing.T) {
	_, est, exec, _ := pipeline(t)
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND (f.val < 15 OR f.val > 85)"
	q := analyzed(t, exec, sql)
	got := est.EstimateJoin(q.Tables, q.Joins)
	truth, err := exec.TrueCardinality(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qe := cardinal.QError(got, truth); qe > 3 {
		t.Errorf("OR-filtered join estimate %g vs truth %g (q=%g)", got, truth, qe)
	}
	if est.Fallbacks() > 0 {
		t.Errorf("OR filter fell back %d times", est.Fallbacks())
	}
}

// TestSnapshotAndCostModelAbsent checks an empty registry's snapshot, and
// that the learned cost model is not a kind the registry serves: it is
// trained and evaluated offline (examples/costmodel) and no planner
// consumes it.
func TestSnapshotAndCostModelAbsent(t *testing.T) {
	infer := core.NewInferenceEngine(core.Options{})
	snap := infer.Snapshot()
	if snap.Tables != 0 || snap.Loads != 0 || snap.HasFJ || snap.HasRBX {
		t.Errorf("empty snapshot = %+v", snap)
	}
	if !infer.Admin().State("bn:ghost").Timestamp.IsZero() {
		t.Error("unknown model must have zero timestamp")
	}
	err := infer.LoadModel(core.Artifact{Name: "toy/costmodel", Kind: "costmodel", Timestamp: time.Now(), Data: []byte("model")})
	if err == nil {
		t.Error("the registry must not accept a cost-model artifact")
	}
}

func TestLoadModelUnknownKind(t *testing.T) {
	infer := core.NewInferenceEngine(core.Options{})
	err := infer.LoadModel(core.Artifact{Name: "x", Kind: "mystery", Timestamp: time.Now()})
	if err == nil {
		t.Error("unknown kind must be rejected")
	}
}

func TestCorruptFactorJoinAndRBXRejected(t *testing.T) {
	infer := core.NewInferenceEngine(core.Options{})
	for _, kind := range []core.ModelKind{core.KindFactorJoin, core.KindRBX} {
		err := infer.LoadModel(core.Artifact{
			Name: "bad", Kind: kind, Timestamp: time.Now(), Data: []byte("garbage"),
		})
		if err == nil {
			t.Errorf("corrupt %s must be rejected", kind)
		}
	}
	if got := infer.Snapshot().Rejects; got != 2 {
		t.Errorf("rejects = %d, want both corrupt artifacts counted", got)
	}
}
