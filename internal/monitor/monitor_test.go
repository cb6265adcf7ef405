package monitor

import (
	"testing"
	"time"

	"bytecard/internal/cardinal"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/loader"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
	"bytecard/internal/rbx"
	"bytecard/internal/sample"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

type fixture struct {
	mon   *Monitor
	infer *core.InferenceEngine
	forge *modelforge.Service
	ld    *loader.Loader
	ds    *datagen.Dataset
}

func setup(t *testing.T) *fixture {
	t.Helper()
	ds := datagen.Toy(datagen.Config{Scale: 2, Seed: 71})
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	forge := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 2000, BucketCount: 16,
		Seed: 1,
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
	loader.LoadSamples(ds.DB, est, 2000, 3)
	exec := engine.New(ds.DB, ds.Schema, est)
	mon := &Monitor{
		Exec:  exec,
		Est:   est,
		Feat:  core.NewFeaturizer(ds.DB, ds.Schema),
		Infer: infer,
		Seed:  5,
	}
	return &fixture{mon: mon, infer: infer, forge: forge, ld: ld, ds: ds}
}

func TestHealthyModelPasses(t *testing.T) {
	f := setup(t)
	f.mon.Threshold = 50
	f.mon.Probes = 12
	rep, err := f.mon.CheckTable("fact")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breached {
		t.Errorf("healthy model breached (worst q=%g)", rep.Worst)
	}
	if len(rep.QErrors) != 12 {
		t.Errorf("probes run = %d", len(rep.QErrors))
	}
	if f.infer.Admin().State("bn:fact").Disabled {
		t.Error("healthy model must stay enabled")
	}
}

func TestCheckAllCoversEveryTable(t *testing.T) {
	f := setup(t)
	f.mon.Threshold = 1e9
	f.mon.Probes = 4
	reports, err := f.mon.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Errorf("reports = %d, want 2", len(reports))
	}
}

func TestCheckAllContinuesPastErrors(t *testing.T) {
	f := setup(t)
	// An empty table makes its probe generation fail; the sweep must
	// still cover the healthy tables and report the failure.
	f.ds.DB.Add(storage.NewBuilder("hollow", []storage.ColumnSpec{{Name: "x", Kind: types.KindInt64}}).Build())
	f.mon.Threshold = 1e9
	f.mon.Probes = 3
	reports, err := f.mon.CheckAll()
	if err == nil {
		t.Fatal("sweep must surface the empty table's error")
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3 (error tables included)", len(reports))
	}
	probed := 0
	for _, rep := range reports {
		if rep.Table == "hollow" {
			if rep.Err == nil {
				t.Error("hollow report must carry its error")
			}
			continue
		}
		if rep.Err != nil {
			t.Errorf("table %s unexpectedly errored: %v", rep.Table, rep.Err)
		}
		if len(rep.QErrors) == 3 {
			probed++
		}
	}
	if probed != 2 {
		t.Errorf("healthy tables fully probed = %d, want 2", probed)
	}
}

func TestBreachDisablesAndRetrains(t *testing.T) {
	f := setup(t)
	// An impossible threshold forces a breach.
	f.mon.Threshold = 1.0000001
	f.mon.Probes = 8
	retrained := ""
	f.mon.RetrainTable = func(table string) error {
		retrained = table
		_, err := f.forge.TrainTableAt(table, time.Now().Add(time.Hour))
		return err
	}
	rep, err := f.mon.CheckTable("fact")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Breached {
		t.Fatal("expected breach at threshold ~1")
	}
	if !f.infer.Admin().State("bn:fact").Disabled {
		t.Error("breached model must be disabled")
	}
	if retrained != "fact" {
		t.Error("retrain hook not invoked")
	}
	// After reloading the retrained model, re-enabling restores service.
	if _, err := f.ld.RefreshOnce(); err != nil {
		t.Fatal(err)
	}
	f.infer.Admin().Enable("bn:fact")
	f.mon.Threshold = 100
	rep, err = f.mon.CheckTable("fact")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breached {
		t.Errorf("retrained model still breaches (worst %g)", rep.Worst)
	}
}

func TestCheckNDVHealthy(t *testing.T) {
	f := setup(t)
	f.mon.Threshold = 100
	f.mon.Probes = 6
	rep, err := f.mon.CheckNDV("fact", "val")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breached {
		t.Errorf("NDV check breached (worst %g, qerrors %v)", rep.Worst, rep.QErrors)
	}
}

func TestNDVBreachTriggersCalibration(t *testing.T) {
	f := setup(t)
	// Below the metric's floor of 1: every probe breaches, even when the
	// estimator is exact (the toy sample covers the whole population).
	f.mon.Threshold = 0.99
	f.mon.Probes = 5
	var gotColumn string
	var gotProfiles []sample.Profile
	f.mon.FineTuneNDV = func(column string, profiles []sample.Profile, truths []float64) error {
		gotColumn = column
		gotProfiles = profiles
		return f.forge.FineTuneRBX(column, profiles, truths, rbx.FineTuneConfig{
			Epochs: 2, HighNDVColumns: 20, Seed: 3,
		})
	}
	rep, err := f.mon.CheckNDV("fact", "val")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Breached {
		t.Fatal("expected NDV breach")
	}
	if !f.infer.Admin().State("rbx:fact.val").Disabled {
		t.Error("breached column must be disabled for RBX")
	}
	if gotColumn != "fact.val" || len(gotProfiles) == 0 {
		t.Errorf("calibration evidence missing: col=%q profiles=%d", gotColumn, len(gotProfiles))
	}
	// Revalidation with a sane threshold re-enables the column.
	if _, err := f.ld.RefreshOnce(); err != nil {
		t.Fatal(err)
	}
	f.mon.Threshold = 1000
	rep, err = f.mon.RevalidateNDV("fact", "val")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breached {
		t.Errorf("revalidation failed (worst %g)", rep.Worst)
	}
	if f.infer.Admin().State("rbx:fact.val").Disabled {
		t.Error("revalidated column must be re-enabled")
	}
}

func TestCheckUnknownTable(t *testing.T) {
	f := setup(t)
	if _, err := f.mon.CheckTable("ghost"); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := f.mon.CheckNDV("ghost", "x"); err == nil {
		t.Error("unknown table must error for NDV checks")
	}
}
