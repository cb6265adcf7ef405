package loader

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
)

func trainedStore(t *testing.T) (*modelstore.Store, *datagen.Dataset, *modelforge.Service) {
	t.Helper()
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 61})
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 500, BucketCount: 12,
		Seed: 1,
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	return store, ds, forge
}

func TestRefreshOnceLoadsEverything(t *testing.T) {
	store, _, _ := trainedStore(t)
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	n, err := l.RefreshOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // 2 BN + factorjoin + rbx
		t.Errorf("loaded = %d, want 4", n)
	}
	// Second refresh with no changes loads nothing.
	n, err = l.RefreshOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("re-refresh loaded %d, want 0", n)
	}
}

func TestRefreshPicksUpNewTimestamps(t *testing.T) {
	store, _, forge := trainedStore(t)
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	if _, err := l.RefreshOnce(); err != nil {
		t.Fatal(err)
	}
	// Retrain one table with a later clock.
	if err := forgeWithClock(forge, time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	n, err := l.RefreshOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("refresh after retrain loaded %d, want 1", n)
	}
}

func forgeWithClock(forge *modelforge.Service, at time.Time) error {
	// NotifyIngest crossing the threshold retrains the table; inject the
	// clock through the exported test hook on Config via a fresh train.
	_, err := forge.TrainTableAt("fact", at)
	return err
}

func TestRefreshSkipsCorruptArtifact(t *testing.T) {
	store, _, _ := trainedStore(t)
	// Inject a corrupt artifact.
	err := store.Put(core.Artifact{
		Name: "toy/bn/corrupt", Kind: core.KindBN, Table: "corrupt",
		Timestamp: time.Now(), Data: []byte("garbage"),
	})
	if err != nil {
		t.Fatal(err)
	}
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	n, err := l.RefreshOnce()
	if err == nil {
		t.Error("refresh must report the corrupt artifact")
	}
	if n != 4 {
		t.Errorf("valid artifacts loaded = %d, want 4 despite corruption", n)
	}
	if l.Health().LastError == nil {
		t.Error("Health().LastError must record the failure")
	}
}

// TestRefreshSkipsRetiredCostModel refreshes from a store written while the
// learned cost model was still an Inference Engine kind: its artifact is
// skipped, not reported, so every sweep succeeds and the loader stays
// healthy.
func TestRefreshSkipsRetiredCostModel(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 61})
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 500, BucketCount: 12,
		Seed: 1,
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	// Put refuses the retired kind, so store the artifact under a live one
	// and rewrite its manifest the way earlier versions wrote it.
	if err := store.Put(core.Artifact{Name: "toy/costmodel", Kind: core.KindRBX, Timestamp: time.Now(), Data: []byte("model")}); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*costmodel.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("cost-model manifest: %v, %v", paths, err)
	}
	blob, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var m modelstore.Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m.Kind = "costmodel"
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	l := New(store, core.NewInferenceEngine(core.Options{}))
	for i, want := range []int{4, 0} { // 2 BN + factorjoin + rbx, then nothing new
		n, err := l.RefreshOnce()
		if err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
		if n != want {
			t.Errorf("refresh %d loaded %d, want %d", i, n, want)
		}
	}
	if h := l.Health(); h.LastError != nil || h.ConsecutiveFailures != 0 {
		t.Errorf("health = %+v, want clean", h)
	}
}

// TestRefreshSkipsTruncatedFile corrupts stored artifacts at the file level
// (truncation and byte garbling — what a torn upload or disk fault leaves
// behind) and verifies the sweep skips them while the intact artifacts all
// load.
func TestRefreshSkipsTruncatedFile(t *testing.T) {
	ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 61})
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 500, BucketCount: 12,
		Seed: 1,
	})
	if _, err := forge.TrainAll(); err != nil {
		t.Fatal(err)
	}
	// Truncate one payload and garble another, in place on disk.
	manifests, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	var corrupted []string
	for _, m := range manifests {
		if m.Kind != core.KindBN {
			continue
		}
		art, err := store.Get(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		data := art.Data
		if len(corrupted) == 0 {
			data = data[:len(data)/3] // truncated
		} else {
			data = append([]byte{}, data...)
			for i := 0; i < len(data); i += 7 {
				data[i] ^= 0xA5 // garbled
			}
		}
		if err := os.WriteFile(filepath.Join(dir, m.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = append(corrupted, m.Table)
		if len(corrupted) == 2 {
			break
		}
	}
	if len(corrupted) != 2 {
		t.Fatalf("corrupted %d BN artifacts, want 2", len(corrupted))
	}
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	n, err := l.RefreshOnce()
	if err == nil {
		t.Error("refresh must report the corrupt payloads")
	}
	if n != 2 { // factorjoin + rbx still load
		t.Errorf("valid artifacts loaded = %d, want 2 despite corruption", n)
	}
	h := l.Health()
	if h.LastError == nil || h.ConsecutiveFailures != 1 {
		t.Errorf("health = %+v, want recorded failure", h)
	}
	// Retraining rewrites the payloads; the next sweep heals.
	for _, table := range corrupted {
		if _, err := forge.TrainTableAt(table, time.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.RefreshOnce(); err != nil {
		t.Fatalf("refresh after repair: %v", err)
	}
	h = l.Health()
	if h.LastError != nil || h.ConsecutiveFailures != 0 || h.LastSuccess.IsZero() {
		t.Errorf("healed health = %+v", h)
	}
}

// TestRefreshOnceConcurrent exercises RefreshOnce from many goroutines (as
// System.RefreshModels racing the background Run loop would); run under
// -race this guards the installed-map and health-state mutex.
func TestRefreshOnceConcurrent(t *testing.T) {
	store, _, forge := trainedStore(t)
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				_, _ = l.RefreshOnce()
				_ = l.Health()
				if g == 0 {
					_, _ = forge.TrainTableAt("fact", time.Now().Add(time.Duration(i)*time.Minute))
				}
			}
		}(g)
	}
	wg.Wait()
	if infer.Snapshot().Loads < 4 {
		t.Errorf("loads = %d, want >= 4", infer.Snapshot().Loads)
	}
}

func TestRunRetriesWithBackoff(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A broken manifest no longer fails List (the store quarantines it),
	// so break the store harder: remove the directory out from under it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	l := New(store, core.NewInferenceEngine(core.Options{}))
	l.Interval = time.Hour // retries must come from backoff, not the interval
	l.BackoffBase = time.Millisecond
	l.BackoffMax = 4 * time.Millisecond
	// Trigger the first attempt quickly: RefreshOnce directly seeds the
	// failure count, then Run's timer fires after the backoff delay.
	if _, err := l.RefreshOnce(); err == nil {
		t.Fatal("broken store must fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		l.run(ctx, l.nextDelay(time.Hour, true))
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for l.Health().ConsecutiveFailures < 4 {
		select {
		case <-deadline:
			t.Fatalf("backoff retries not happening: %+v", l.Health())
		case <-time.After(time.Millisecond):
		}
	}
	// Heal the store: the loop recovers on the next backed-off retry.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for l.Health().ConsecutiveFailures != 0 {
		select {
		case <-deadline:
			t.Fatalf("loop never recovered: %+v", l.Health())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
}

func TestNextDelay(t *testing.T) {
	l := &Loader{BackoffBase: time.Second, BackoffMax: 8 * time.Second}
	if d := l.nextDelay(time.Hour, false); d != time.Hour {
		t.Errorf("success delay = %v", d)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second} {
		l.failures = i + 1
		if d := l.nextDelay(time.Hour, true); d != want {
			t.Errorf("failure %d delay = %v, want %v", i+1, d, want)
		}
	}
	// The cap never exceeds the refresh interval itself.
	l.failures = 10
	if d := l.nextDelay(3*time.Second, true); d != 3*time.Second {
		t.Errorf("interval-capped delay = %v", d)
	}
}

func TestRunLoop(t *testing.T) {
	store, _, _ := trainedStore(t)
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	l.Interval = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		l.Run(ctx)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for infer.Snapshot().Loads < 4 {
		select {
		case <-deadline:
			t.Fatal("loader loop never installed models")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

func TestLoadSamples(t *testing.T) {
	store, ds, _ := trainedStore(t)
	infer := core.NewInferenceEngine(core.Options{})
	l := New(store, infer)
	if _, err := l.RefreshOnce(); err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(infer, nil)
	LoadSamples(ds.DB, est, 100, 3)
	if len(est.Samples) != 2 {
		t.Fatalf("samples = %d tables, want 2", len(est.Samples))
	}
	f := est.Samples["fact"]
	if f.Len() == 0 || f.Len() > 100 {
		t.Errorf("fact sample = %d rows", f.Len())
	}
	if f.PopSize() != int64(ds.DB.Table("fact").NumRows()) {
		t.Errorf("population = %d", f.PopSize())
	}
}

func TestRefreshOnceUnreadableStore(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupted manifest is quarantined, not fatal: the refresh sweeps
	// past it and the incident shows in the health snapshot.
	if err := os.WriteFile(dir+"/broken.json", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := New(store, core.NewInferenceEngine(core.Options{}))
	if _, err := l.RefreshOnce(); err != nil {
		t.Errorf("quarantined manifest must not fail the refresh: %v", err)
	}
	if h := l.Snapshot(); h.Store.BadManifests != 1 {
		t.Errorf("store health = %+v, want one bad manifest", h.Store)
	}
	// An unreadable store directory is still a hard failure.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RefreshOnce(); err == nil {
		t.Error("missing store directory must surface an error")
	}
}
