package costmodel_test

import (
	"math"
	"testing"

	"bytecard/internal/costmodel"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/sqlparse"
	"bytecard/internal/workload"
)

func collect(t *testing.T) (*engine.Engine, []costmodel.Trace) {
	t.Helper()
	ds := datagen.IMDB(datagen.Config{Scale: 0.02, Seed: 81})
	exec := engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	w, err := workload.JOBHybrid(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	for _, q := range w.Queries[:60] {
		sqls = append(sqls, q.SQL)
	}
	traces, err := costmodel.CollectTraces(exec, sqls)
	if err != nil {
		t.Fatal(err)
	}
	return exec, traces
}

func TestCollectTraces(t *testing.T) {
	_, traces := collect(t)
	if len(traces) != 60 {
		t.Fatalf("traces = %d", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Features) != costmodel.FeatureDim {
			t.Fatalf("feature dim %d", len(tr.Features))
		}
		if tr.Millis < 0 {
			t.Fatalf("negative latency %g", tr.Millis)
		}
	}
}

func TestTrainPredictsBetterThanMean(t *testing.T) {
	// Synthetic target derived from the features: wall-clock latencies are
	// too noisy under parallel test load to grade the regressor reliably.
	exec, traces := collect(t)
	_ = exec
	for i := range traces {
		f := traces[i].Features
		traces[i].Millis = math.Expm1(0.3*f[0] + 0.25*f[4] + 0.1*f[2])
	}
	train, test := traces[:45], traces[45:]
	model, err := costmodel.Train(train, costmodel.TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: predict the training mean (in log space).
	var meanLog float64
	for _, tr := range train {
		meanLog += math.Log1p(tr.Millis)
	}
	meanLog /= float64(len(train))
	var modelErr, baseErr float64
	for _, tr := range test {
		y := math.Log1p(tr.Millis)
		p := math.Log1p(math.Max(model.PredictMillis(tr.Features), 0))
		modelErr += (p - y) * (p - y)
		baseErr += (meanLog - y) * (meanLog - y)
	}
	if modelErr >= baseErr {
		t.Errorf("model MSE %g not better than mean baseline %g", modelErr, baseErr)
	}
	if model.TrainSeconds <= 0 || model.SizeBytes() <= 0 {
		t.Error("metadata missing")
	}
}

func TestPredictPlan(t *testing.T) {
	exec, traces := collect(t)
	model, err := costmodel.Train(traces, costmodel.TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, err := exec.Analyze(sqlparse.MustParse("SELECT COUNT(*) FROM title WHERE production_year > 2000"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if ms := model.PredictPlan(p); ms < 0 || math.IsNaN(ms) {
		t.Errorf("PredictPlan = %g", ms)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := costmodel.Train(nil, costmodel.TrainConfig{}); err == nil {
		t.Error("too few traces must fail")
	}
	bad := make([]costmodel.Trace, 10)
	for i := range bad {
		bad[i] = costmodel.Trace{Features: []float64{1}, Millis: 1}
	}
	if _, err := costmodel.Train(bad, costmodel.TrainConfig{}); err == nil {
		t.Error("wrong feature width must fail")
	}
}
