package core_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
)

// churnSQL filters fact, so its plan reads fact's BN in the scan estimate
// and again in the join batch's key vectors.
const churnSQL = "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < 40"

// withPlanCache wires a plan cache into exec and registers it, as
// bytecard.Open does, so model loads invalidate it.
func withPlanCache(infer *core.InferenceEngine, exec *engine.Engine) {
	exec.PlanCache = engine.NewPlanCache(1 << 20)
	infer.RegisterCache("plan", exec.PlanCache)
}

// factVariants trains two BN artifacts of fact on ds that estimate
// differently (different bucket counts), each stamped after every artifact
// pipeline loaded.
func factVariants(t *testing.T, ds *datagen.Dataset) [2]core.Artifact {
	t.Helper()
	var out [2]core.Artifact
	for i, buckets := range []int{10, 25} {
		store, err := modelstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{SampleRows: 500, BucketCount: buckets, Seed: int64(5 + i)})
		if _, err := forge.TrainTableAt("fact", time.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if out[i], err = store.Get("toy/bn/fact"); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// estimatesOf lists every estimate a plan carries: the scans', the join
// steps', the final one and the aggregation capacity, as float bits.
func estimatesOf(p *engine.Plan) []uint64 {
	var out []uint64
	for _, s := range p.Scans {
		out = append(out, math.Float64bits(s.EstRows))
	}
	for _, v := range p.JoinEstRows {
		out = append(out, math.Float64bits(v))
	}
	return append(out, math.Float64bits(p.EstFinalRows), uint64(p.AggCapacity))
}

// freshEstimates plans sql single-threaded against the current models,
// bypassing the plan cache.
func freshEstimates(t *testing.T, exec *engine.Engine, sql string) []uint64 {
	t.Helper()
	p, err := exec.PlanWith(analyzed(t, exec, sql), exec.Est)
	if err != nil {
		t.Fatal(err)
	}
	return estimatesOf(p)
}

// loadOnFirstCall is a FaultHook whose Before runs load once, on the first
// guarded model call after it is installed.
type loadOnFirstCall struct {
	once sync.Once
	load func()
}

func (h *loadOnFirstCall) Before(string)                         { h.once.Do(h.load) }
func (h *loadOnFirstCall) Transform(_ string, v float64) float64 { return v }

// TestPlanReadsOneGeneration loads a replacement fact BN between a plan's
// first model call and its second: the plan must read the pre-load
// models throughout, publish nothing it estimated from them, and the next
// plan must read the new ones.
func TestPlanReadsOneGeneration(t *testing.T) {
	infer, est, exec, ds := pipeline(t)
	withPlanCache(infer, exec)
	replacement := factVariants(t, ds)[0]
	before := freshEstimates(t, exec, churnSQL)

	est.Guard.SetHook(&loadOnFirstCall{load: func() {
		if err := infer.LoadModel(replacement); err != nil {
			t.Error(err)
		}
	}})
	p, err := exec.Plan(analyzed(t, exec, churnSQL))
	est.Guard.SetHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheHit {
		t.Fatal("first plan of the template hit the cache")
	}
	if n := exec.PlanCache.Len(); n != 0 {
		t.Errorf("plan cache holds %d templates estimated before the load", n)
	}
	if n := infer.CacheStats()["joinvec"].Entries; n != 0 {
		t.Errorf("subset memo holds %d estimates computed before the load", n)
	}
	if got := estimatesOf(p); !slices.Equal(got, before) {
		t.Errorf("plan across the load estimated %v, want the pre-load plan's %v", got, before)
	}

	after := freshEstimates(t, exec, churnSQL)
	if slices.Equal(after, before) {
		t.Fatal("the replacement BN must estimate differently")
	}
	next, err := exec.Plan(analyzed(t, exec, churnSQL))
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheHit {
		t.Error("the plan after the load replayed a cached template")
	}
	if got := estimatesOf(next); !slices.Equal(got, after) {
		t.Errorf("plan after the load estimated %v, want the new models' %v", got, after)
	}
}

// TestLoadModelRejectsOversizedArtifacts checks MaxModelBytes holds for
// every kind: an oversized FactorJoin or RBX artifact is rejected,
// counted in Stats.Rejects, and not installed, as an oversized BN is.
func TestLoadModelRejectsOversizedArtifacts(t *testing.T) {
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 6})
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{SampleRows: 500, BucketCount: 10, Seed: 2})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	infer := core.NewInferenceEngine(core.Options{MaxModelBytes: 1})
	for i, name := range []string{"toy/factorjoin", modelforge.RBXBaseName, "toy/bn/fact"} {
		a, err := store.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := infer.LoadModel(a); err == nil {
			t.Errorf("%s: oversized artifact loaded", name)
		}
		if got := infer.Snapshot().Rejects; got != int64(i+1) {
			t.Errorf("%s: rejects = %d, want %d", name, got, i+1)
		}
	}
	if s := infer.Snapshot(); s.HasFJ || s.HasRBX || s.Tables != 0 || s.Loads != 0 {
		t.Errorf("oversized artifacts installed: %+v", s)
	}
}
