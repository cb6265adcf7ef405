package bytecard

import (
	"math"
	"slices"
	"testing"

	"bytecard/internal/cardinal"
)

func openToy(t *testing.T) *System {
	t.Helper()
	sys, err := Open(Options{
		Dataset: "toy", Scale: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBaseNetworkIndependentOfSeed opens Systems at data seeds 1 and 2:
// both serve the same base RBX network. Weights are compared, not artifact
// bytes, because the artifact also encodes its training time.
func TestBaseNetworkIndependentOfSeed(t *testing.T) {
	var weights [2][]uint64
	for i, seed := range []int64{1, 2} {
		sys, err := Open(Options{Dataset: "toy", Scale: 1, Seed: seed, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		m := sys.Infer.RBX()
		if m == nil {
			t.Fatalf("seed %d: no RBX model loaded", seed)
		}
		for _, l := range m.Net.Layers {
			for _, vs := range [][]float64{l.W, l.B} {
				for _, v := range vs {
					weights[i] = append(weights[i], math.Float64bits(v))
				}
			}
		}
	}
	if !slices.Equal(weights[0], weights[1]) {
		t.Fatal("seeds 1 and 2 load different base networks")
	}
}

func TestOpenAndRun(t *testing.T) {
	sys := openToy(t)
	res, err := sys.Run("SELECT COUNT(*) FROM fact WHERE val < 50")
	if err != nil {
		t.Fatal(err)
	}
	n, err := res.ScalarInt()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("count = %d", n)
	}
	if sys.TrainReport == nil || len(sys.TrainReport.Models) == 0 {
		t.Error("training report missing")
	}
}

func TestEstimateCountAccuracy(t *testing.T) {
	sys := openToy(t)
	sql := "SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 1"
	est, err := sys.EstimateCount(sql)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sys.TrueCount(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q := cardinal.QError(est, truth); q > 1.5 {
		t.Errorf("estimate %g vs truth %g (q=%g)", est, truth, q)
	}
}

func TestEstimateJoinThroughFacade(t *testing.T) {
	sys := openToy(t)
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3"
	est, err := sys.EstimateCount(sql)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sys.TrueCount(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q := cardinal.QError(est, truth); q > 3 {
		t.Errorf("join estimate %g vs truth %g (q=%g)", est, truth, q)
	}
}

func TestEstimateNDVThroughFacade(t *testing.T) {
	sys := openToy(t)
	sql := "SELECT COUNT(DISTINCT fact.val) FROM fact"
	est, err := sys.EstimateNDV(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := res.ScalarInt()
	if q := cardinal.QError(est, float64(truth)); q > 2.5 {
		t.Errorf("NDV estimate %g vs truth %d (q=%g)", est, truth, q)
	}
}

func TestSkipTrainingFallsBack(t *testing.T) {
	sys, err := Open(Options{Dataset: "toy", Scale: 1, Seed: 3, SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("SELECT COUNT(*) FROM fact"); err != nil {
		t.Fatal(err)
	}
	if sys.Estimator.Fallbacks() == 0 {
		// Run issues at least one estimate; without models it must fall
		// back — unless the single-table COUNT skipped estimation, so
		// force one.
		if _, err := sys.Run("SELECT COUNT(*) FROM fact WHERE val < 10"); err != nil {
			t.Fatal(err)
		}
		if sys.Estimator.Fallbacks() == 0 {
			t.Error("expected fallback without trained models")
		}
	}
	// Training then refreshing enables the models.
	if _, err := sys.Forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	n, err := sys.RefreshModels()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("refresh loaded nothing after training")
	}
}

func TestCheckModels(t *testing.T) {
	sys := openToy(t)
	sys.Monitor.Threshold = 1e9
	sys.Monitor.Probes = 3
	reports, err := sys.CheckModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Errorf("reports = %d", len(reports))
	}
}

func TestWorkloadGeneration(t *testing.T) {
	sys := openToy(t)
	w, err := sys.Workload(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) == 0 {
		t.Fatal("empty workload")
	}
	for _, q := range w.Queries[:5] {
		if _, err := sys.Run(q.SQL); err != nil {
			t.Errorf("workload query failed: %s: %v", q.SQL, err)
		}
	}
}

func TestUnknownOptions(t *testing.T) {
	if _, err := Open(Options{Dataset: "nope"}); err == nil {
		t.Error("unknown dataset must error")
	}
	if _, err := Open(Options{Dataset: "toy", Scale: 1, Estimator: "nope", SkipTraining: true}); err == nil {
		t.Error("unknown estimator must error")
	}
}

func TestHealthSnapshot(t *testing.T) {
	sys := openToy(t)
	if _, err := sys.Run("SELECT COUNT(*) FROM fact WHERE val < 50"); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.Estimator.Calls == 0 {
		t.Error("metrics show no estimator calls")
	}
	if m.Estimator.Fallbacks != 0 {
		t.Errorf("healthy system fell back %d times", m.Estimator.Fallbacks)
	}
	if g := m.Guard; g.Panics+g.Timeouts+g.Invalid != 0 {
		t.Errorf("healthy system recorded guard trips: %+v", g)
	}
	if !m.Registry.HasFJ || !m.Registry.HasRBX {
		t.Errorf("registry incomplete: %+v", m.Registry)
	}
	if len(m.Registry.Disabled) != 0 || len(m.Registry.Breakers) != 0 {
		t.Errorf("healthy system shows degradation: %+v", m.Registry)
	}
	if m.Loader.LastSuccess.IsZero() || m.Loader.ConsecutiveFailures != 0 {
		t.Errorf("loader health = %+v", m.Loader)
	}
}
