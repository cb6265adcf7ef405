// Package bench is the experiment harness: it prepares a full environment
// per dataset (synthetic data, hybrid workload, trained models, all three
// estimators) and regenerates every table and figure of the paper's
// evaluation section. Absolute numbers differ from the paper (its substrate
// is a 75-core production cluster at terabyte scale); the harness
// reproduces the *shape* of each result.
package bench

import (
	"fmt"
	"time"

	"bytecard/internal/cardinal"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/loader"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
	"bytecard/internal/workload"
)

// Config scales the whole harness.
type Config struct {
	// Scale is the dataset scale factor (default 0.05: a few hundred
	// thousand rows across the three datasets — minutes, not hours).
	Scale float64
	// Seed drives every generator.
	Seed int64
	// BucketCount sizes join buckets (default 200, the paper's setting).
	BucketCount int
	// SampleRows caps BN training samples (default 8000).
	SampleRows int
	// ProbeCount sizes the Q-error probe workloads (default 60).
	ProbeCount int
	// StoreDir persists model artifacts; empty uses a temp dir.
	StoreDir string
	// Log receives progress lines when non-nil.
	Log func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.BucketCount <= 0 {
		c.BucketCount = 200
	}
	if c.SampleRows <= 0 {
		c.SampleRows = 8000
	}
	if c.ProbeCount <= 0 {
		c.ProbeCount = 60
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Env is a prepared per-dataset environment.
type Env struct {
	Cfg    Config
	DS     *datagen.Dataset
	Hybrid workload.Workload

	Sketch   *cardinal.SketchEstimator
	Sample   *cardinal.SampleEstimator
	ByteCard *core.Estimator
	Infer    *core.InferenceEngine
	Forge    *modelforge.Service
	Report   *modelforge.Report

	// Truth executes queries for ground truth (estimator choice does not
	// affect results).
	Truth *engine.Engine

	// SetupSeconds records environment preparation time.
	SetupSeconds float64
}

// NewEnv generates the dataset, its hybrid workload, and all three
// estimators (training the learned models through the full ModelForge →
// store → loader pipeline).
func NewEnv(dataset string, cfg Config) (*Env, error) {
	cfg.fill()
	start := time.Now()
	cfg.logf("[%s] generating dataset (scale %.3g)", dataset, cfg.Scale)
	ds, err := datagen.ByName(dataset, datagen.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, DS: ds}

	cfg.logf("[%s] generating hybrid workload", dataset)
	env.Hybrid, err = workload.ByName(ds, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	cfg.logf("[%s] building traditional estimators", dataset)
	env.Sketch = cardinal.NewSketchEstimator(ds.DB, cardinal.DefaultHistogramBuckets)
	// A 2%% sampling rate (clamped) keeps the sample baseline in its
	// realistic regime: a fixed absolute reservoir would cover whole
	// tables at bench scale and estimate nearly exactly.
	env.Sample = cardinal.NewSampleEstimatorRate(ds.DB, 0.02, 100, cardinal.DefaultSampleRows, cfg.Seed+2)

	cfg.logf("[%s] training ByteCard models", dataset)
	dir := cfg.StoreDir
	if dir == "" {
		dir = fmt.Sprintf("%s/bytecard-bench-%s-%d", tmpDir(), dataset, cfg.Seed)
	}
	store, err := modelstore.Open(dir)
	if err != nil {
		return nil, err
	}
	env.Forge = modelforge.New(dataset, ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows:  cfg.SampleRows,
		BucketCount: cfg.BucketCount,
		Seed:        cfg.Seed + 3,
	})
	env.Report, err = env.Forge.TrainAll()
	if err != nil {
		return nil, err
	}
	env.Infer = core.NewInferenceEngine(core.Options{})
	ld := loader.New(store, env.Infer)
	if _, err := ld.RefreshOnce(); err != nil {
		return nil, err
	}
	env.ByteCard = core.NewEstimator(env.Infer, env.Sketch)
	loader.LoadSamples(ds.DB, env.ByteCard, cfg.SampleRows, cfg.Seed+4)

	env.Truth = engine.New(ds.DB, ds.Schema, engine.HeuristicEstimator{})
	env.SetupSeconds = time.Since(start).Seconds()
	cfg.logf("[%s] environment ready in %.1fs", dataset, env.SetupSeconds)
	return env, nil
}

// Engine builds an execution engine driven by the named estimator
// ("sketch", "sample", "bytecard", "heuristic").
func (e *Env) Engine(method string) (*engine.Engine, error) {
	est, err := e.Estimator(method)
	if err != nil {
		return nil, err
	}
	return engine.New(e.DS.DB, e.DS.Schema, est), nil
}

// Estimator returns the named estimator.
func (e *Env) Estimator(method string) (engine.CardEstimator, error) {
	switch method {
	case "sketch":
		return e.Sketch, nil
	case "sample":
		return e.Sample, nil
	case "bytecard":
		return e.ByteCard, nil
	case "heuristic":
		return engine.HeuristicEstimator{}, nil
	default:
		return nil, fmt.Errorf("bench: unknown method %q", method)
	}
}

// Methods lists the estimators the paper compares.
func Methods() []string { return []string{"sketch", "sample", "bytecard"} }

// Datasets lists the evaluation datasets.
func Datasets() []string { return []string{"imdb", "stats", "aeolus"} }
