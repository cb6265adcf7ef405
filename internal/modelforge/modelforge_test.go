package modelforge

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"bytecard/internal/bn"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/factorjoin"
	"bytecard/internal/modelstore"
	"bytecard/internal/rbx"
	"bytecard/internal/sample"
	"bytecard/internal/types"
)

func newForge(t *testing.T, scale float64) (*Service, *modelstore.Store, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Toy(datagen.Config{Scale: scale, Seed: 51})
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New("toy", ds.DB, ds.Schema, store, Config{
		SampleRows: 1000, BucketCount: 16, Seed: 1, RetrainRows: 100,
	})
	return svc, store, ds
}

func TestTrainAllProducesArtifacts(t *testing.T) {
	svc, store, _ := newForge(t, 1)
	rep, err := svc.TrainAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSeconds <= 0 {
		t.Error("total time missing")
	}
	manifests, _ := store.List()
	kinds := map[core.ModelKind]int{}
	for _, m := range manifests {
		kinds[m.Kind]++
	}
	if kinds[core.KindBN] != 2 {
		t.Errorf("BN artifacts = %d, want 2 (dim, fact)", kinds[core.KindBN])
	}
	if kinds[core.KindFactorJoin] != 1 || kinds[core.KindRBX] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
	// Report entries cover every artifact.
	if len(rep.Models) != len(manifests) {
		t.Errorf("report has %d models, store has %d", len(rep.Models), len(manifests))
	}
	for _, m := range rep.Models {
		if m.SizeBytes <= 0 {
			t.Errorf("model %s reports zero size", m.Name)
		}
	}
}

func TestRBXTrainedOnlyOnce(t *testing.T) {
	svc, store, _ := newForge(t, 1)
	if _, err := svc.TrainAll(); err != nil {
		t.Fatal(err)
	}
	art1, _ := store.Get(RBXBaseName)
	if _, err := svc.TrainAll(); err != nil {
		t.Fatal(err)
	}
	art2, _ := store.Get(RBXBaseName)
	if !art1.Timestamp.Equal(art2.Timestamp) {
		t.Error("workload-independent RBX must not retrain when present")
	}
}

func TestTrainTableUnknown(t *testing.T) {
	svc, _, _ := newForge(t, 1)
	if _, err := svc.TrainTable("ghost"); err == nil {
		t.Error("unknown table must error")
	}
}

func TestShardSpecializedTraining(t *testing.T) {
	svc, store, ds := newForge(t, 2)
	ds.Schema.Table("fact").ShardKey = "dim_id"
	svc.cfg.Shards = 3
	if _, err := svc.TrainAll(); err != nil {
		t.Fatal(err)
	}
	manifests, _ := store.List()
	shardArts := 0
	for _, m := range manifests {
		if m.Kind == core.KindBN && m.Table == "fact" {
			shardArts++
			if m.Shard < 0 {
				t.Error("sharded table must produce shard-numbered artifacts")
			}
		}
	}
	if shardArts < 2 {
		t.Errorf("shard artifacts = %d, want >= 2", shardArts)
	}
	// Shard populations must sum to the table size: decode and check.
	var totalRows float64
	for _, m := range manifests {
		if m.Kind == core.KindBN && m.Table == "fact" {
			art, _ := store.Get(m.Name)
			infer := core.NewInferenceEngine(core.Options{})
			if err := infer.LoadModel(art); err != nil {
				t.Fatal(err)
			}
			ctxs, _ := infer.BNContexts("fact")
			totalRows += ctxs[0].Model().Rows
		}
	}
	if int(totalRows) != ds.DB.Table("fact").NumRows() {
		t.Errorf("shard rows sum to %g, want %d", totalRows, ds.DB.Table("fact").NumRows())
	}
}

func TestNotifyIngestTriggersRetrain(t *testing.T) {
	svc, store, _ := newForge(t, 1)
	if _, err := svc.TrainAll(); err != nil {
		t.Fatal(err)
	}
	before, _ := store.Get("toy/bn/fact")
	// Below threshold: no retrain.
	if err := svc.NotifyIngest("fact", 10); err != nil {
		t.Fatal(err)
	}
	if svc.RetrainCount("fact") != 0 {
		t.Error("premature retrain")
	}
	// Cross the threshold. Use a later clock so the timestamp advances.
	svc.cfg.Now = func() time.Time { return time.Now().Add(time.Hour) }
	if err := svc.NotifyIngest("fact", 200); err != nil {
		t.Fatal(err)
	}
	if svc.RetrainCount("fact") != 1 {
		t.Errorf("retrains = %d, want 1", svc.RetrainCount("fact"))
	}
	after, _ := store.Get("toy/bn/fact")
	if !after.Timestamp.After(before.Timestamp) {
		t.Error("retrain must store a newer artifact")
	}
}

func TestFineTuneRBXUpdatesStore(t *testing.T) {
	svc, store, _ := newForge(t, 1)
	if _, err := svc.TrainAll(); err != nil {
		t.Fatal(err)
	}
	before, _ := store.Get(RBXBaseName)
	var profiles []sample.Profile
	var truths []float64
	vals := make([]types.Datum, 500)
	for i := range vals {
		vals[i] = types.Int(int64(i))
	}
	profiles = append(profiles, sample.ProfileOfValues(vals, 50000))
	truths = append(truths, 45000)
	svc.cfg.Now = func() time.Time { return time.Now().Add(time.Hour) }
	err := svc.FineTuneRBX("fact.session", profiles, truths, rbx.FineTuneConfig{
		Epochs: 3, HighNDVColumns: 30, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := store.Get(RBXBaseName)
	if !after.Timestamp.After(before.Timestamp) {
		t.Error("fine-tune must bump the artifact timestamp")
	}
	model, err := rbx.Decode(after.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := model.Calibrated["fact.session"]; !ok {
		t.Error("calibrated column missing from stored model")
	}
}

func TestFineTuneWithoutBaseFails(t *testing.T) {
	svc, _, _ := newForge(t, 1)
	if err := svc.FineTuneRBX("x", []sample.Profile{{}}, []float64{1}, rbx.FineTuneConfig{}); err == nil {
		t.Error("fine-tune without base model must fail")
	}
}

func TestHTTPRoundtrip(t *testing.T) {
	svc, _, _ := newForge(t, 1)
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	client := NewClient(srv.URL)

	rep, err := client.TrainAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Models) == 0 {
		t.Error("remote train returned empty report")
	}
	if err := client.Ingest(IngestSignal{Table: "fact", Rows: 5, Source: "kafka"}); err != nil {
		t.Fatal(err)
	}
	if err := client.Ingest(IngestSignal{Table: "ghost", Rows: 500}); err == nil {
		t.Error("ingest crossing threshold for unknown table must fail")
	}
	vals := make([]types.Datum, 100)
	for i := range vals {
		vals[i] = types.Int(int64(i))
	}
	err = client.FineTune(FineTuneRequest{
		Column:   "fact.val",
		Profiles: []sample.Profile{sample.ProfileOfValues(vals, 1000)},
		Truths:   []float64{900},
		Config:   rbx.FineTuneConfig{Epochs: 2, HighNDVColumns: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrainWorkersDeterministicArtifacts trains the same dataset with a
// single worker and with a pool, requiring identical trained models — the
// guarantee that lets Config.TrainWorkers be a pure speed knob.
// Comparison is structural (decoded models, wall-time fields normalized):
// gob serializes maps in random iteration order, so equal models need not
// share bytes.
func TestTrainWorkersDeterministicArtifacts(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	artifacts := func(workers int) map[string][]byte {
		ds := datagen.Toy(datagen.Config{Scale: 1, Seed: 51})
		store, err := modelstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		svc := New("toy", ds.DB, ds.Schema, store, Config{
			SampleRows: 1000, BucketCount: 16, Seed: 1,
			TrainWorkers: workers,
			Now:          func() time.Time { return now },
		})
		if _, err := svc.TrainAll(); err != nil {
			t.Fatal(err)
		}
		manifests, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, m := range manifests {
			art, err := store.Get(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[m.Name] = art.Data
		}
		return out
	}
	serial := artifacts(1)
	pooled := artifacts(4)
	if len(serial) != len(pooled) {
		t.Fatalf("artifact counts differ: %d vs %d", len(serial), len(pooled))
	}
	for name, want := range serial {
		got, ok := pooled[name]
		if !ok {
			t.Fatalf("artifact %s missing from pooled run", name)
		}
		switch name {
		case "toy/factorjoin":
			a, err := factorjoin.Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			b, err := factorjoin.Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			b.BuildSeconds = a.BuildSeconds
			if !reflect.DeepEqual(a, b) {
				t.Errorf("artifact %s differs between worker counts", name)
			}
		case "toy/bn/dim", "toy/bn/fact":
			a, err := bn.Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			b, err := bn.Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			b.TrainSeconds = a.TrainSeconds
			b.StructureSeconds = a.StructureSeconds
			b.ParamSeconds = a.ParamSeconds
			if !reflect.DeepEqual(a, b) {
				t.Errorf("artifact %s differs between worker counts", name)
			}
		case RBXBaseName:
			a, err := rbx.Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rbx.Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			b.TrainSeconds = a.TrainSeconds
			if !reflect.DeepEqual(a, b) {
				t.Errorf("artifact %s differs between worker counts", name)
			}
		default:
			t.Errorf("unexpected artifact %s", name)
		}
	}
}

// TestTrainMetricsRecorded checks the per-stage training timings surface
// through the service's obs block after a full pipeline.
func TestTrainMetricsRecorded(t *testing.T) {
	svc, _, _ := newForge(t, 1)
	if _, err := svc.TrainAll(); err != nil {
		t.Fatal(err)
	}
	snap := svc.Obs().Snapshot()
	if snap.Runs != 1 {
		t.Errorf("Runs = %d, want 1", snap.Runs)
	}
	if snap.TablesTrained != 2 {
		t.Errorf("TablesTrained = %d, want 2", snap.TablesTrained)
	}
	if snap.StructureSeconds.Count != 2 || snap.ParamSeconds.Count != 2 {
		t.Errorf("stage histogram counts = %d/%d, want 2/2",
			snap.StructureSeconds.Count, snap.ParamSeconds.Count)
	}
	if snap.FactorJoinSeconds.Count != 1 {
		t.Errorf("FactorJoinSeconds count = %d, want 1", snap.FactorJoinSeconds.Count)
	}
	if snap.StructureSeconds.Sum <= 0 || snap.ParamSeconds.Sum < 0 {
		t.Errorf("stage timings not recorded: %+v", snap)
	}
}
