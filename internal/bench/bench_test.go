package bench

import (
	"math"
	"testing"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		Scale:      0.01,
		Seed:       3,
		ProbeCount: 20,
		SampleRows: 2000,
	}
}

var cachedEnv *Env

func imdbEnv(t *testing.T) *Env {
	t.Helper()
	if cachedEnv == nil {
		env, err := NewEnv("imdb", tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedEnv = env
	}
	return cachedEnv
}

func meanLog(errors []float64) float64 {
	var s float64
	for _, e := range errors {
		s += math.Log(e)
	}
	return s / float64(len(errors))
}

func TestQErrorExperimentShape(t *testing.T) {
	env := imdbEnv(t)
	trad, err := env.Table1()
	if err != nil {
		t.Fatal(err)
	}
	learned, err := env.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(trad) != 2 || len(learned) != 2 {
		t.Fatalf("rows: trad=%d learned=%d", len(trad), len(learned))
	}
	for _, rows := range [][]QErrorRow{trad, learned} {
		for _, r := range rows {
			if r.Summary.Count == 0 || r.Summary.Count > env.Cfg.ProbeCount {
				t.Errorf("%s/%s: %d probes, want <= %d non-empty", r.Method, r.Kind, r.Summary.Count, env.Cfg.ProbeCount)
			}
			for _, q := range r.Errors {
				if q < 1 {
					t.Errorf("%s/%s: q-error %g below theoretical floor", r.Method, r.Kind, q)
				}
			}
		}
	}
	// The headline shape: learned COUNT estimation beats traditional on
	// the geometric mean of Q-errors.
	if meanLog(learned[0].Errors) > meanLog(trad[0].Errors) {
		t.Errorf("learned COUNT q-errors (geo-mean %g) should beat traditional (%g)",
			math.Exp(meanLog(learned[0].Errors)), math.Exp(meanLog(trad[0].Errors)))
	}
}

func TestTrainingExperiment(t *testing.T) {
	env := imdbEnv(t)
	rows, err := env.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 methods", len(rows))
	}
	byMethod := map[string]TrainingRow{}
	for _, r := range rows {
		if r.TrainSeconds <= 0 || r.ModelBytes <= 0 {
			t.Errorf("method %s has empty cost: %+v", r.Method, r)
		}
		byMethod[r.Method] = r
	}
	// Shape: DeepDB (denormalized) must be bigger than ByteCard's models.
	if byMethod["DeepDB"].ModelBytes <= byMethod["ByteCard(BN+FactorJoin)"].ModelBytes/4 {
		t.Logf("model sizes: DeepDB=%d ByteCard=%d", byMethod["DeepDB"].ModelBytes, byMethod["ByteCard(BN+FactorJoin)"].ModelBytes)
	}
}

func TestFigure5Latency(t *testing.T) {
	env := imdbEnv(t)
	rows, err := env.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sawPeak bool
	for _, r := range rows {
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: quantiles inverted: %+v", r.Method, r)
		}
		if r.N99 > 1+1e-9 {
			t.Errorf("%s: normalized P99 = %g > 1", r.Method, r.N99)
		}
		if r.N99 > 1-1e-9 {
			sawPeak = true
		}
	}
	if !sawPeak {
		t.Error("one method must define the normalization peak")
	}
}

func TestFigure7Distributions(t *testing.T) {
	env := imdbEnv(t)
	rows, err := env.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Errors) == 0 || len(r.Errors) > len(env.Hybrid.Queries) {
			t.Errorf("%s: %d errors for %d queries", r.Method, len(r.Errors), len(env.Hybrid.Queries))
		}
		s := sortedCopy(r.Errors)
		if s[0] < 1 {
			t.Errorf("%s: q-error %g below floor", r.Method, s[0])
		}
	}
}

func TestTable5Stats(t *testing.T) {
	env := imdbEnv(t)
	s, err := env.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries != 100 {
		t.Errorf("queries = %d, want 100", s.Queries)
	}
	if s.MinTables < 2 || s.MaxTables > 5 {
		t.Errorf("table range [%d,%d], want within [2,5]", s.MinTables, s.MaxTables)
	}
	if s.JoinTemplates < 5 {
		t.Errorf("join templates = %d, suspiciously few", s.JoinTemplates)
	}
	if s.MaxCard <= s.MinCard {
		t.Errorf("cardinality range [%g, %g]", s.MinCard, s.MaxCard)
	}
}

func TestTable6ModelDetails(t *testing.T) {
	env := imdbEnv(t)
	rows := env.Table6()
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Method] = true
		if r.SizeBytes <= 0 {
			t.Errorf("%s size = %d", r.Method, r.SizeBytes)
		}
	}
	if !seen["BN"] || !seen["FactorJoin"] {
		t.Errorf("missing model kinds: %v", seen)
	}
}

func TestFigure6bResizeShape(t *testing.T) {
	rows, err := Figure6b(tinyConfig(), []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var presized, cold int64
	for _, r := range rows {
		if r.Method == "bytecard" {
			presized = r.Resizes
		} else {
			cold = r.Resizes
		}
	}
	if presized > cold {
		t.Errorf("presized resizes %d > cold-start %d", presized, cold)
	}
}

func TestEnvEstimatorDispatch(t *testing.T) {
	env := imdbEnv(t)
	for _, m := range Methods() {
		if _, err := env.Estimator(m); err != nil {
			t.Errorf("method %s: %v", m, err)
		}
	}
	if _, err := env.Estimator("nope"); err == nil {
		t.Error("unknown method must error")
	}
	if len(Datasets()) != 3 {
		t.Error("datasets list wrong")
	}
}

// TestEstimatorsAgreeOnHybridResults runs hybrid workload queries under
// every estimator: optimizer decisions (join order, reader strategy,
// presizing) may differ, but results must be identical.
func TestEstimatorsAgreeOnHybridResults(t *testing.T) {
	env := imdbEnv(t)
	limit := 20
	if limit > len(env.Hybrid.Queries) {
		limit = len(env.Hybrid.Queries)
	}
	ref, err := env.Engine("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range Methods() {
		exec, err := env.Engine(method)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range env.Hybrid.Queries[:limit] {
			want, err := ref.Run(q.SQL)
			if err != nil {
				t.Fatalf("reference failed on %s: %v", q.SQL, err)
			}
			got, err := exec.Run(q.SQL)
			if err != nil {
				t.Fatalf("%s failed on %s: %v", method, q.SQL, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: %q returned %d rows, want %d", method, q.SQL, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					a, b := got.Rows[i][j].AsFloat(), want.Rows[i][j].AsFloat()
					if d := a - b; d > 1e-6 || d < -1e-6 {
						t.Fatalf("%s: %q cell [%d][%d]: %v vs %v", method, q.SQL, i, j, got.Rows[i][j], want.Rows[i][j])
					}
				}
			}
		}
	}
}

// TestByteCardFewestFallbacksOnHybrid verifies the trained system answers
// hybrid planning almost entirely from learned models.
func TestByteCardFewestFallbacksOnHybrid(t *testing.T) {
	env := imdbEnv(t)
	exec, err := env.Engine("bytecard")
	if err != nil {
		t.Fatal(err)
	}
	before := env.ByteCard.Fallbacks()
	calls := env.ByteCard.Calls()
	for _, q := range env.Hybrid.Queries[:30] {
		if _, err := exec.Run(q.SQL); err != nil {
			t.Fatal(err)
		}
	}
	newCalls := env.ByteCard.Calls() - calls
	newFallbacks := env.ByteCard.Fallbacks() - before
	if newCalls == 0 {
		t.Fatal("no estimator calls recorded")
	}
	if float64(newFallbacks) > 0.1*float64(newCalls) {
		t.Errorf("fallbacks %d of %d calls (>10%%)", newFallbacks, newCalls)
	}
}
