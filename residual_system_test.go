package bytecard

import (
	"testing"
	"time"

	"bytecard/internal/cardinal"
	"bytecard/internal/sqlparse"
)

// Residual-corrector system tests: the feature flag must be inert when off
// (estimates byte-identical to a system without the corrector), the
// executed-truth loop must feed the corrector through ordinary Run calls,
// and model churn must provably reset corrector state via the DerivedCache
// registry.

func openResidualToy(t *testing.T, residualOn bool) *System {
	t.Helper()
	sys, err := Open(Options{
		Dataset: "toy", Scale: 2, Seed: 11, ResidualCorrection: residualOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// planEstimate routes sql through the optimizer's estimation entry points
// (the ones the corrector hooks), without executing.
func planEstimate(t *testing.T, sys *System, sql string) float64 {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Engine.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) == 1 {
		return sys.Estimator.EstimateFilter(q.Tables[0])
	}
	return sys.Estimator.EstimateJoin(q.Tables, q.Joins)
}

var residualProbeSQLs = []string{
	"SELECT COUNT(*) FROM fact WHERE fact.val < 40",
	"SELECT COUNT(*) FROM fact WHERE fact.flag = 1 AND fact.val >= 50",
	"SELECT COUNT(*) FROM dim WHERE dim.cat <= 3",
	"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < 40",
	"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat = 2 AND f.flag = 0",
}

func TestResidualFlagOffIsInert(t *testing.T) {
	off := openResidualToy(t, false)
	on := openResidualToy(t, true)

	if off.Residual != nil {
		t.Fatal("flag-off system allocated a corrector")
	}
	if on.Residual == nil {
		t.Fatal("flag-on system has no corrector")
	}
	if _, ok := off.Metrics().Caches["residual"]; ok {
		t.Error("flag-off system registered a residual cache")
	}
	if _, ok := on.Metrics().Caches["residual"]; !ok {
		t.Error("flag-on system did not register the residual cache")
	}
	if snap := off.Metrics().Residual; snap.Observations != 0 || snap.Applications != 0 {
		t.Errorf("flag-off residual snapshot not zero: %+v", snap)
	}

	// With an empty corrector the flag must not perturb a single estimate:
	// identical training (same seed) plus a factor-1 correction path must
	// reproduce the flag-off numbers exactly.
	for _, sql := range residualProbeSQLs {
		a, b := planEstimate(t, off, sql), planEstimate(t, on, sql)
		if a != b {
			t.Errorf("%s: flag-on (empty corrector) estimate %g != flag-off %g", sql, b, a)
		}
	}
}

func TestResidualLearnsFromRunLoop(t *testing.T) {
	sys := openResidualToy(t, true)
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND f.val < 40"

	before := planEstimate(t, sys, sql)
	truth, err := sys.TrueCount(sql) // executes via Run, so it observes too
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Metrics().Residual.Observations
	// Ordinary execution feeds the corrector: plan estimate + executed
	// truth per statement, on cache misses and plan-cache hits alike.
	const runs = 6
	for i := 0; i < runs; i++ {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Residual.Len() == 0 {
		t.Fatal("executed statements materialized no residual buckets")
	}
	snap := sys.Metrics().Residual
	if snap.Observations-base != runs {
		t.Errorf("corrector absorbed %d observations over the loop, want %d", snap.Observations-base, runs)
	}
	after := planEstimate(t, sys, sql)
	qBefore, qAfter := cardinal.QError(before, truth), cardinal.QError(after, truth)
	if qAfter > qBefore*1.0001 {
		t.Errorf("corrected estimate %g (q=%.4f) worse than uncorrected %g (q=%.4f) against truth %g",
			after, qAfter, before, qBefore, truth)
	}
	// The metrics surface must show the estimation-path activity.
	if total := sys.Metrics().Residual.Applications + sys.Metrics().Residual.Skipped; total == 0 {
		t.Error("correction path never consulted the corrector")
	}
}

func TestModelChurnResetsResidual(t *testing.T) {
	sys := openResidualToy(t, true)
	factOnly := "SELECT COUNT(*) FROM fact WHERE fact.val < 50"
	joined := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3"
	for _, sql := range []string{factOnly, joined} {
		for i := 0; i < 3; i++ {
			if _, err := sys.Run(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sys.Residual.Len() < 2 {
		t.Fatalf("corrector holds %d buckets, want >= 2 (both templates)", sys.Residual.Len())
	}

	// Retraining dim ships through RefreshModels and must drop exactly the
	// buckets whose templates touch dim — their residuals measured models
	// that no longer serve the estimates.
	beforeLen := sys.Residual.Len()
	if _, err := sys.Forge.TrainTableAt("dim", time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RefreshModels(); err != nil {
		t.Fatal(err)
	}
	afterLen := sys.Residual.Len()
	if afterLen >= beforeLen {
		t.Errorf("retraining dim left bucket count %d -> %d, want a drop", beforeLen, afterLen)
	}
	if afterLen == 0 {
		t.Error("retraining dim dropped fact-only buckets too")
	}
	if sys.Residual.Stats().Invalidations == 0 {
		t.Error("retrain recorded no residual invalidations")
	}

	// Disabling a model flushes everything (corrections may embed it).
	sys.Infer.Admin().Disable("bn:fact")
	if n := sys.Residual.Len(); n != 0 {
		t.Errorf("disable left %d residual buckets", n)
	}
	sys.Infer.Admin().Enable("bn:fact")

	// Admin flush routes through the same registry.
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(factOnly); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Residual.Len() == 0 {
		t.Fatal("post-churn executions did not rebuild buckets")
	}
	if n := sys.Infer.Admin().FlushCaches(); n == 0 {
		t.Error("admin flush dropped nothing")
	}
	if n := sys.Residual.Len(); n != 0 {
		t.Errorf("admin flush left %d residual buckets", n)
	}
}

// TestResidualOnlyFeedsByteCardEstimator guards the truth hook's gating:
// running under a traditional estimator must not teach the corrector —
// its residuals would calibrate against the wrong estimates.
func TestResidualOnlyFeedsByteCardEstimator(t *testing.T) {
	sys, err := Open(Options{
		Dataset: "toy", Scale: 2, Seed: 11, ResidualCorrection: true, Estimator: "sketch",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("SELECT COUNT(*) FROM fact WHERE fact.val < 50"); err != nil {
		t.Fatal(err)
	}
	if sys.Engine.OnTruth != nil {
		t.Error("truth hook wired under a non-ByteCard estimator")
	}
	if sys.Residual != nil && sys.Residual.Len() != 0 {
		t.Errorf("corrector learned %d buckets from sketch estimates", sys.Residual.Len())
	}
}
