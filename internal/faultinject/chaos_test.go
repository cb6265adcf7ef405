package faultinject_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"bytecard"
	"bytecard/internal/core"
	"bytecard/internal/faultinject"
)

// smoke is the chaos workload: filters, a join, NDV, and grouping over the
// toy schema, touching every model family (BN, FactorJoin, RBX).
var smoke = []string{
	"SELECT COUNT(*) FROM fact WHERE val >= 50 AND flag = 1",
	"SELECT COUNT(*) FROM fact WHERE val < 20",
	"SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 2",
	"SELECT COUNT(DISTINCT val) FROM fact",
	"SELECT val, COUNT(*) FROM fact GROUP BY val",
}

func openSystem(t *testing.T, opts bytecard.Options) *bytecard.System {
	t.Helper()
	opts.Dataset = "toy"
	opts.Scale = 1
	opts.Seed = 17
	opts.StoreDir = t.TempDir()
	opts.SampleRows = 800
	opts.BucketCount = 12
	// Plan caching off for the whole chaos suite: every run must exercise
	// the guarded model path, not replay decisions cached while computing
	// the fault-free ground truths.
	opts.PlanCacheBytes = -1
	sys, err := bytecard.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// truths runs the workload fault-free and records each query's result shape
// (and scalar value where the shape is scalar). Execution correctness must
// be identical under injection: faults may only degrade estimation.
func truths(t *testing.T, sys *bytecard.System) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	for _, sql := range smoke {
		res, err := sys.Run(sql)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		v, err := res.ScalarInt()
		if err != nil {
			v = -1 // non-scalar: compare row counts only
		}
		out[sql] = [2]int64{int64(len(res.Rows)), v}
	}
	return out
}

// runSmoke executes the workload under an active fault and checks every
// query completes with the fault-free result.
func runSmoke(t *testing.T, sys *bytecard.System, want map[string][2]int64, fault string) {
	t.Helper()
	for _, sql := range smoke {
		res, err := sys.Run(sql)
		if err != nil {
			t.Fatalf("%s: query %q failed: %v", fault, sql, err)
		}
		v, err := res.ScalarInt()
		if err != nil {
			v = -1
		}
		got := [2]int64{int64(len(res.Rows)), v}
		if got != want[sql] {
			t.Errorf("%s: query %q = %v, want %v", fault, sql, got, want[sql])
		}
	}
}

func TestChaosPanic(t *testing.T) {
	sys := openSystem(t, bytecard.Options{})
	want := truths(t, sys)
	inj := faultinject.New(101)
	inj.Arm(faultinject.Rule{Kind: faultinject.Panic})
	sys.SetFaultHook(inj)
	before := sys.Metrics()

	runSmoke(t, sys, want, "panic")

	h := sys.Metrics()
	if inj.Injected(faultinject.Panic) == 0 {
		t.Fatal("no panics were injected")
	}
	if h.Guard.Panics == 0 {
		t.Error("guard recovered no panics")
	}
	if h.Estimator.Fallbacks <= before.Estimator.Fallbacks {
		t.Errorf("fallbacks did not move: %d -> %d", before.Estimator.Fallbacks, h.Estimator.Fallbacks)
	}
	// Healing the fault restores the learned path (breakers may need the
	// cooldown; use a fresh key check instead of waiting).
	sys.SetFaultHook(nil)
	runSmoke(t, sys, want, "healed")
}

func TestChaosNaN(t *testing.T) {
	sys := openSystem(t, bytecard.Options{})
	want := truths(t, sys)
	inj := faultinject.New(102)
	inj.Arm(faultinject.Rule{Kind: faultinject.NaN})
	sys.SetFaultHook(inj)
	before := sys.Metrics()

	runSmoke(t, sys, want, "nan")

	h := sys.Metrics()
	if inj.Injected(faultinject.NaN) == 0 {
		t.Fatal("no NaNs were injected")
	}
	if h.Guard.Invalid == 0 {
		t.Error("sanitizer rejected no estimates")
	}
	if h.Estimator.Fallbacks <= before.Estimator.Fallbacks {
		t.Errorf("fallbacks did not move: %d -> %d", before.Estimator.Fallbacks, h.Estimator.Fallbacks)
	}
	// The estimation API must never surface NaN: either a clean error or
	// a finite value (via fallback-free single-table path this errors).
	if v, err := sys.EstimateCount(smoke[0]); err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
		t.Errorf("EstimateCount leaked invalid value %v", v)
	}
}

func TestChaosDelay(t *testing.T) {
	sys := openSystem(t, bytecard.Options{
		Guard: core.GuardConfig{LatencyBudget: 5 * time.Millisecond},
	})
	want := truths(t, sys)
	inj := faultinject.New(103)
	inj.Arm(faultinject.Rule{Kind: faultinject.Delay, Delay: 50 * time.Millisecond})
	sys.SetFaultHook(inj)
	before := sys.Metrics()

	runSmoke(t, sys, want, "delay")

	h := sys.Metrics()
	if inj.Injected(faultinject.Delay) == 0 {
		t.Fatal("no delays were injected")
	}
	if h.Guard.Timeouts == 0 {
		t.Error("latency budget never tripped")
	}
	if h.Estimator.Fallbacks <= before.Estimator.Fallbacks {
		t.Errorf("fallbacks did not move: %d -> %d", before.Estimator.Fallbacks, h.Estimator.Fallbacks)
	}
}

func TestChaosCorruptArtifact(t *testing.T) {
	sys := openSystem(t, bytecard.Options{})
	want := truths(t, sys)

	// Retrain both tables so strictly newer artifacts land in the store,
	// then corrupt their payloads on disk: one truncated, one garbled.
	future := time.Now().Add(time.Hour)
	manifests, err := sys.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, m := range manifests {
		if m.Kind != core.KindBN {
			continue
		}
		if _, err := sys.Forge.TrainTableAt(m.Table, future); err != nil {
			t.Fatal(err)
		}
		art, err := sys.Store.Get(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if corrupted == 0 {
			art.Data = faultinject.Truncate(art.Data, 0.4)
		} else {
			art.Data = faultinject.Garble(art.Data, 7)
		}
		art.Timestamp = future.Add(time.Minute)
		if err := sys.Store.Put(art); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no BN artifacts to corrupt")
	}

	// The refresh must report the corruption but keep serving: the
	// previously installed models stay live and queries stay correct.
	if _, err := sys.RefreshModels(); err == nil {
		t.Error("refresh must surface the corrupt artifacts")
	}
	if h := sys.Metrics(); h.Loader.LastError == "" || h.Loader.ConsecutiveFailures != 1 {
		t.Errorf("loader health = %+v, want recorded failure", h.Loader)
	}
	runSmoke(t, sys, want, "corrupt-artifact")
	if _, err := sys.EstimateCount(smoke[0]); err != nil {
		t.Errorf("estimation lost its models after corrupt refresh: %v", err)
	}
}

func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	sys := openSystem(t, bytecard.Options{
		Breaker: core.BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, HalfOpenProbes: 1},
	})
	want := truths(t, sys)
	now := time.Now()
	clock := now
	var mu sync.Mutex
	sys.Infer.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	})
	inj := faultinject.New(104)
	inj.Arm(faultinject.Rule{Kind: faultinject.Panic, KeyPrefix: "bn:fact"})
	sys.SetFaultHook(inj)

	// Three failing calls open the breaker.
	fv, err := sys.Featurizer.FeaturizeSQLQuery(smoke[0])
	if err != nil {
		t.Fatal(err)
	}
	ft := fv.Query().Tables[0]
	for i := 0; i < 3; i++ {
		sys.Estimator.EstimateFilter(ft)
	}
	if st := sys.Infer.Admin().State("bn:fact").Breaker; st != core.BreakerOpen {
		t.Fatalf("breaker = %s after 3 panics, want open", st)
	}
	panicsAtOpen := sys.Metrics().Guard.Panics

	// While open, calls skip the model entirely (no new panics) and the
	// workload still completes via fallback.
	sys.Estimator.EstimateFilter(ft)
	runSmoke(t, sys, want, "breaker-open")
	if p := sys.Metrics().Guard.Panics; p != panicsAtOpen {
		t.Errorf("open breaker still invoked the model: panics %d -> %d", panicsAtOpen, p)
	}
	snap := sys.Infer.Snapshot()
	if snap.BreakerTrips == 0 {
		t.Error("snapshot shows no breaker trips")
	}
	found := false
	for _, b := range snap.Breakers {
		if b.Key == "bn:fact" && b.State == core.BreakerOpen && b.Failures >= 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot breakers missing open bn:fact: %+v", snap.Breakers)
	}

	// Heal the model and pass the cooldown: the half-open probe succeeds
	// and the breaker closes, restoring the learned path.
	inj.Disarm()
	mu.Lock()
	clock = now.Add(2 * time.Minute)
	mu.Unlock()
	fallbacksBefore := sys.Metrics().Estimator.Fallbacks
	sys.Estimator.EstimateFilter(ft)
	if st := sys.Infer.Admin().State("bn:fact").Breaker; st != core.BreakerClosed {
		t.Fatalf("breaker = %s after successful probe, want closed", st)
	}
	sys.Estimator.EstimateFilter(ft)
	if fb := sys.Metrics().Estimator.Fallbacks; fb != fallbacksBefore {
		t.Errorf("healed model still falling back: %d -> %d", fallbacksBefore, fb)
	}
	runSmoke(t, sys, want, "breaker-recovered")
}

// TestChaosConcurrent storms the system from many goroutines while panics
// and NaNs fire probabilistically; under -race this validates the guard,
// breaker, and loader locking, and the engine must never crash.
func TestChaosConcurrent(t *testing.T) {
	sys := openSystem(t, bytecard.Options{})
	want := truths(t, sys)
	inj := faultinject.New(105)
	inj.Arm(faultinject.Rule{Kind: faultinject.Panic, Rate: 0.3})
	inj.Arm(faultinject.Rule{Kind: faultinject.NaN, Rate: 0.3})
	sys.SetFaultHook(inj)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for _, sql := range smoke {
					res, err := sys.Run(sql)
					if err != nil {
						errs <- err
						return
					}
					if int64(len(res.Rows)) != want[sql][0] {
						errs <- nil
					}
				}
				_, _ = sys.RefreshModels() // loader racing queries
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent chaos run failed: %v", err)
	}
	if inj.Injected(faultinject.Panic) == 0 && inj.Injected(faultinject.NaN) == 0 {
		t.Error("no faults fired during the storm")
	}
}
