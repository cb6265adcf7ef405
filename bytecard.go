// Package bytecard is the public API of this repository: a reproduction of
// "ByteCard: Enhancing ByteDance's Data Warehouse with Learned Cardinality
// Estimation" (SIGMOD 2024). It assembles the full system — a columnar
// analytical engine, the learned cardinality models (tree Bayesian
// networks, FactorJoin, the RBX NDV estimator), and the ByteCard framework
// around them (Inference Engine, ModelForge training service, Model
// Loader, Model Monitor, Model Preprocessor) — behind one System handle.
//
// Quick start:
//
//	sys, err := bytecard.Open(bytecard.Options{Dataset: "imdb", Scale: 0.02})
//	res, err := sys.Run("SELECT COUNT(*) FROM title WHERE production_year > 2000")
//	est, err := sys.EstimateCount("SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id")
package bytecard

import (
	"encoding/json"
	"expvar"
	"fmt"
	"os"

	"bytecard/internal/cardinal"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/loader"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
	"bytecard/internal/monitor"
	"bytecard/internal/obs"
	"bytecard/internal/rbx"
	"bytecard/internal/residual"
	"bytecard/internal/sample"
	"bytecard/internal/workload"
)

// Options configure Open.
type Options struct {
	// Dataset selects a built-in synthetic dataset: "imdb", "stats",
	// "aeolus", "timeseries", or "toy".
	Dataset string
	// Scale multiplies base row counts (default 0.05).
	Scale float64
	// Seed drives all generators and training (default 1). The RBX base
	// network is the exception: it is trained once per process from
	// rbx.DefaultConfig, whatever the dataset or seed.
	Seed int64
	// StoreDir persists model artifacts between runs; empty uses a
	// temporary directory.
	StoreDir string
	// KeepGenerations bounds how many artifact generations the store
	// retains per model key for corruption fallback (default 3).
	KeepGenerations int
	// SkipTraining opens the system without training models: estimates
	// fall back to the traditional sketch estimator until models are
	// trained and loaded (RefreshModels).
	SkipTraining bool
	// BucketCount sizes FactorJoin's join buckets (default 200, matching
	// the paper's equi-height configuration).
	BucketCount int
	// SampleRows caps per-table training samples (default 8000).
	SampleRows int
	// Estimator selects the optimizer's estimator: "bytecard" (default),
	// "sketch", "sample", or "heuristic".
	Estimator string
	// Parallelism is the executor's morsel-driven worker count (scans,
	// hash-join probes, aggregation). Zero defers to runtime.GOMAXPROCS.
	// Results and block counts are the same at every worker count.
	Parallelism int
	// Guard tunes the inference guard around every model call (panic
	// recovery, latency budget, estimate sanitization). The zero value
	// guards with no latency budget.
	Guard core.GuardConfig
	// Breaker tunes the per-model-key circuit breakers (zero values take
	// the defaults: 5 consecutive failures open, 30s cooldown).
	Breaker core.BreakerConfig
	// TrainWorkers bounds ModelForge's training worker pool (Chow-Liu MI
	// matrix, FactorJoin build). Zero defers to runtime.GOMAXPROCS.
	// Trained models are byte-identical for every worker count.
	TrainWorkers int
	// PlanCacheBytes bounds the template-keyed plan cache's resident
	// bytes. Zero takes the engine default (4 MiB); negative disables plan
	// caching. The cache is registered with the inference registry, so
	// model retrains and refreshes invalidate affected templates
	// automatically.
	PlanCacheBytes int64
	// Pushdown controls the pushdown scan contract (zone-map block
	// skipping, predicate/projection/limit pushdown, late
	// materialization). Zero or positive is on (the default); negative
	// disables pushdown, restoring the pre-contract scan path byte for
	// byte. It stays only because the benchmark's reference oracle pins
	// the pre-contract path; no command-line flag sets it.
	Pushdown int
	// ResidualCorrection enables the online residual corrector: executed
	// queries feed (estimate, truth) pairs into a per-template
	// multiplicative correction applied on top of BN/FactorJoin estimates
	// (see internal/residual), with Monitor-triggered refits on q-error
	// drift. Off by default — and with it off, every estimate is
	// byte-identical to a build without the corrector.
	ResidualCorrection bool
	// Residual tunes the corrector (zero values take the defaults); only
	// consulted when ResidualCorrection is on.
	Residual residual.Config
}

func (o *Options) fill() {
	if o.Dataset == "" {
		o.Dataset = "toy"
	}
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BucketCount <= 0 {
		o.BucketCount = 200
	}
	if o.SampleRows <= 0 {
		o.SampleRows = 8000
	}
	if o.Estimator == "" {
		o.Estimator = "bytecard"
	}
}

// System is a fully wired ByteCard deployment over one dataset.
type System struct {
	Options Options
	// Dataset holds the data and catalog.
	Dataset *datagen.Dataset
	// Engine executes SQL with the selected estimator driving the
	// optimizer.
	Engine *engine.Engine
	// Estimator is the ByteCard estimator (BN + FactorJoin + RBX with
	// sketch fallback).
	Estimator *core.Estimator
	// Sketch and Sample are the traditional baselines.
	Sketch *cardinal.SketchEstimator
	Sample *cardinal.SampleEstimator
	// Infer is the model registry.
	Infer *core.InferenceEngine
	// Forge is the training service.
	Forge *modelforge.Service
	// Store holds serialized model artifacts.
	Store *modelstore.Store
	// Loader ships artifacts from Store into Infer.
	Loader *loader.Loader
	// Monitor probes model quality.
	Monitor *monitor.Monitor
	// Featurizer builds feature vectors for the estimation API.
	Featurizer *core.Featurizer
	// Residual is the online residual corrector (nil unless
	// Options.ResidualCorrection enabled it).
	Residual *residual.Corrector
	// TrainReport records the initial training run (nil with
	// SkipTraining).
	TrainReport *modelforge.Report
}

// Open generates the dataset, trains and loads the models (unless
// SkipTraining), and wires every component of the framework.
func Open(opts Options) (*System, error) {
	opts.fill()
	ds, err := datagen.ByName(opts.Dataset, datagen.Config{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return OpenDataset(ds, opts)
}

// OpenDataset wires the system over a caller-provided dataset.
func OpenDataset(ds *datagen.Dataset, opts Options) (*System, error) {
	opts.fill()
	sys := &System{Options: opts, Dataset: ds}
	dir := opts.StoreDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "bytecard-store-*")
		if err != nil {
			return nil, err
		}
	}
	var err error
	sys.Store, err = modelstore.Open(dir, modelstore.WithKeepGenerations(opts.KeepGenerations))
	if err != nil {
		return nil, err
	}
	sys.Sketch = cardinal.NewSketchEstimator(ds.DB, cardinal.DefaultHistogramBuckets)
	sys.Sample = cardinal.NewSampleEstimator(ds.DB, cardinal.DefaultSampleRows, opts.Seed+2)
	sys.Forge = modelforge.New(ds.Name, ds.DB, ds.Schema, sys.Store, modelforge.Config{
		SampleRows:   opts.SampleRows,
		BucketCount:  opts.BucketCount,
		Seed:         opts.Seed + 3,
		TrainWorkers: opts.TrainWorkers,
	})
	sys.Infer = core.NewInferenceEngine(core.Options{Breaker: opts.Breaker})
	sys.Loader = loader.New(sys.Store, sys.Infer)
	sys.Estimator = core.NewEstimator(sys.Infer, sys.Sketch)
	sys.Estimator.Guard = core.NewGuard(opts.Guard)
	if opts.ResidualCorrection {
		sys.Residual = residual.New(opts.Residual, obs.NewResidualMetrics())
		sys.Estimator.Residual = sys.Residual
		// Registered with the inference registry so model churn (retrain,
		// refresh, enable/disable) drops the corrections learned against
		// the replaced models instead of letting them ride on fresh ones.
		sys.Infer.RegisterCache("residual", sys.Residual)
	}
	sys.Featurizer = core.NewFeaturizer(ds.DB, ds.Schema)

	if !opts.SkipTraining {
		sys.TrainReport, err = sys.Forge.TrainAll()
		if err != nil {
			return nil, err
		}
		if _, err := sys.Loader.RefreshOnce(); err != nil {
			return nil, err
		}
	}
	loader.LoadSamples(ds.DB, sys.Estimator, opts.SampleRows, opts.Seed+4)

	est, err := sys.estimatorByName(opts.Estimator)
	if err != nil {
		return nil, err
	}
	sys.Engine = engine.New(ds.DB, ds.Schema, est)
	sys.Engine.Parallelism = opts.Parallelism
	sys.Engine.Pushdown = opts.Pushdown
	sys.Engine.Obs = obs.NewEngineMetrics()
	if opts.PlanCacheBytes >= 0 {
		pc := engine.NewPlanCache(opts.PlanCacheBytes)
		sys.Engine.PlanCache = pc
		// Registered with the inference registry so model churn (retrain,
		// refresh, enable/disable) invalidates cached templates.
		sys.Infer.RegisterCache("plan", pc)
	}
	if sys.Residual != nil && opts.Estimator == "bytecard" {
		// Close the loop: every executed statement's (template, estimate,
		// truth) tuple feeds the corrector. Only wired when the engine
		// plans with the ByteCard estimator — truth paired with another
		// estimator's numbers would teach the corrector the wrong
		// residuals.
		corr := sys.Residual
		sys.Engine.OnTruth = func(key string, tables []string, est float64, actual int64) {
			corr.Observe(key, tables, est, float64(actual))
		}
	}
	sys.Monitor = &monitor.Monitor{
		Exec:     sys.Engine,
		Est:      sys.Estimator,
		Feat:     sys.Featurizer,
		Infer:    sys.Infer,
		Residual: sys.Residual,
		Seed:     opts.Seed + 5,
		RetrainTable: func(table string) error {
			_, err := sys.Forge.TrainTable(table)
			return err
		},
		FineTuneNDV: func(column string, profiles []sample.Profile, truths []float64) error {
			return sys.Forge.FineTuneRBX(column, profiles, truths, rbx.FineTuneConfig{})
		},
	}
	return sys, nil
}

func (s *System) estimatorByName(name string) (engine.CardEstimator, error) {
	switch name {
	case "bytecard":
		return s.Estimator, nil
	case "sketch":
		return s.Sketch, nil
	case "sample":
		return s.Sample, nil
	case "heuristic":
		return engine.HeuristicEstimator{}, nil
	default:
		return nil, fmt.Errorf("bytecard: unknown estimator %q", name)
	}
}

// Run executes a SQL query through the optimizer and executors.
func (s *System) Run(sql string) (*engine.Result, error) { return s.Engine.Run(sql) }

// RunTraced executes a SQL query and returns, alongside the result, the
// full trace of how it was planned and run: every estimation step the
// optimizer took (with guard outcomes and model sources) followed by the
// execution-phase spans — scan, join, and aggregation, each annotated with
// the morsel-driven worker count it ran with.
func (s *System) RunTraced(sql string) (*engine.Result, *obs.Trace, error) {
	tr := obs.NewTrace()
	res, err := s.Engine.RunTraced(sql, tr)
	if err != nil {
		return nil, tr, err
	}
	return res, tr, nil
}

// Explain parses and plans a query without executing it, returning the
// chosen plan annotated with each node's cardinality estimate, the
// estimator source that produced it (BN, FactorJoin, RBX, or the
// traditional fallback), and the full per-call estimation trace — guard
// outcomes, breaker verdicts, cache hits, and timings included.
func (s *System) Explain(sql string) (*engine.ExplainResult, error) {
	return s.Engine.Explain(sql)
}

// EstimateKind selects what Estimate estimates.
type EstimateKind int

// Estimation kinds.
const (
	// EstimateRows estimates the query's COUNT(*) cardinality (default).
	EstimateRows EstimateKind = iota
	// EstimateDistinct estimates the distinct-key count of a query with a
	// COUNT(DISTINCT …) aggregate or GROUP BY.
	EstimateDistinct
)

// EstimateOpts configure one Estimate call.
type EstimateOpts struct {
	// Kind selects rows (default) or distinct-key estimation.
	Kind EstimateKind
	// Trace attaches the full per-call estimation record — guard
	// outcomes, breaker verdicts, cache hits, timings — to the result.
	Trace bool
}

// EstimateResult is a cardinality estimate with provenance: what the
// number is, which model produced it, whether the traditional estimator
// had to step in, and (on request) the full trace of how estimation
// unfolded.
type EstimateResult struct {
	// Value is the estimated cardinality (rows or distinct groups).
	Value float64 `json:"value"`
	// Source names the estimator that produced Value: "bn", "factorjoin",
	// "rbx", or a fallback estimator name such as "sketch".
	Source string `json:"source"`
	// Fallback reports that a learned model failed (or was unavailable)
	// and the traditional estimator answered instead.
	Fallback bool `json:"fallback"`
	// Trace is the per-call record behind Value (nil unless requested via
	// EstimateOpts.Trace).
	Trace *obs.Trace `json:"-"`
}

// Estimate is the consolidated estimation entry point: one call shape for
// every estimate kind, with provenance always included and the detailed
// trace opt-in. Model failures degrade to the traditional estimator
// (flagged via Fallback and visible in the trace) rather than erroring;
// only unparsable or unanalyzable SQL — or a Distinct request without a
// distinct aggregate — returns an error.
func (s *System) Estimate(sql string, opts EstimateOpts) (EstimateResult, error) {
	fv, err := s.Featurizer.FeaturizeSQLQuery(sql)
	if err != nil {
		return EstimateResult{}, err
	}
	tr := obs.NewTrace()
	var v float64
	switch opts.Kind {
	case EstimateDistinct:
		v, err = s.Estimator.NDVWithTrace(fv, tr)
		if err != nil {
			return EstimateResult{}, err
		}
	default:
		v = s.Estimator.CountWithTrace(fv, tr)
	}
	r := EstimateResult{Value: v, Source: tr.Source(), Fallback: tr.Fallback()}
	if opts.Trace {
		r.Trace = tr
	}
	return r, nil
}

// EstimateCount returns ByteCard's COUNT cardinality estimate for a query
// without executing it — shorthand for Estimate(sql, EstimateOpts{}).
// Like the optimizer path, it degrades to the traditional estimator when
// models are missing or failing; use Estimate to see when that happened.
func (s *System) EstimateCount(sql string) (float64, error) {
	d, err := s.Estimate(sql, EstimateOpts{})
	if err != nil {
		return 0, err
	}
	return d.Value, nil
}

// EstimateNDV returns ByteCard's COUNT-DISTINCT estimate for a query
// containing a COUNT(DISTINCT …) aggregate or GROUP BY — shorthand for
// Estimate(sql, EstimateOpts{Kind: EstimateDistinct}).
func (s *System) EstimateNDV(sql string) (float64, error) {
	d, err := s.Estimate(sql, EstimateOpts{Kind: EstimateDistinct})
	if err != nil {
		return 0, err
	}
	return d.Value, nil
}

// TrueCount executes the query's COUNT(*) form for ground truth.
func (s *System) TrueCount(sql string) (float64, error) {
	return s.Engine.TrueCardinality(workload.CountForm(sql))
}

// RefreshModels ships newly trained artifacts into the inference engine.
func (s *System) RefreshModels() (int, error) { return s.Loader.RefreshOnce() }

// Metrics is the system-wide observability snapshot: estimator counters
// with latency and q-error histograms, guard interventions, the inference
// registry's degradation-ladder state, the Model Loader's refresh health,
// and query-engine volumes. It subsumes the older Health view and is
// fully serializable — String() renders JSON, so a Metrics value (or the
// ExpvarFunc below) plugs straight into expvar.
type Metrics struct {
	// Estimator digests the shared estimator metrics: calls, fallbacks,
	// per-source counts, join-vector cache hits/misses/evictions, model
	// latency, and observed q-errors.
	Estimator obs.EstimatorSnapshot `json:"estimator"`
	// Guard counts guard interventions by failure class.
	Guard core.GuardStats `json:"guard"`
	// Registry is the inference engine snapshot, including disabled keys
	// and circuit-breaker states.
	Registry core.Stats `json:"registry"`
	// Loader reports the model-refresh loop's state, including the backing
	// store's corruption/fallback health.
	Loader loader.HealthSnapshot `json:"loader"`
	// Store counts the model store's persistence activity: puts, gets, and
	// the corruption incidents it detected and absorbed.
	Store obs.StoreSnapshot `json:"store"`
	// Engine covers query volume, plan/exec latency, and the q-error of
	// final-plan estimates against executed truth.
	Engine obs.EngineSnapshot `json:"engine"`
	// Training digests ModelForge's per-stage training timings (BN
	// structure learning, parameter learning, FactorJoin build).
	Training obs.TrainSnapshot `json:"training"`
	// Caches snapshots every registered derived cache by name — "joinvec"
	// for the estimator's join-vector/subset cache, "plan" for the
	// template-keyed plan cache (absent when disabled), "residual" for the
	// online corrector's bucket table (absent when disabled) — with uniform
	// hit/miss/eviction/invalidation counters and resident byte/entry
	// gauges.
	Caches map[string]obs.CacheSnapshot `json:"caches"`
	// Residual digests the online residual corrector: corrections applied
	// vs skipped, truth tuples absorbed, drift refits, correction-factor
	// magnitudes, and pre- vs post-correction q-error (all zero when the
	// corrector is disabled).
	Residual obs.ResidualSnapshot `json:"residual"`
}

// String renders the snapshot as JSON, satisfying expvar.Var.
func (m Metrics) String() string {
	b, err := json.Marshal(m)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Metrics returns the system-wide observability snapshot.
func (s *System) Metrics() Metrics {
	var rm *obs.ResidualMetrics
	if s.Residual != nil {
		rm = s.Residual.Metrics()
	}
	return Metrics{
		Estimator: s.Estimator.Metrics.Snapshot(),
		Guard:     s.Estimator.Guard.Stats(),
		Registry:  s.Infer.Snapshot(),
		Loader:    s.Loader.Snapshot(),
		Store:     s.Store.Obs().Snapshot(),
		Engine:    s.Engine.Obs.Snapshot(),
		Training:  s.Forge.Obs().Snapshot(),
		Caches:    s.Infer.CacheStats(),
		Residual:  rm.Snapshot(),
	}
}

// ExpvarFunc adapts the system to expvar publishing:
//
//	expvar.Publish("bytecard", sys.ExpvarFunc())
//
// Publication is left to the caller because expvar names are global and
// panic on reuse.
func (s *System) ExpvarFunc() expvar.Func {
	return expvar.Func(func() any { return s.Metrics() })
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook on
// the estimator's guard — chaos testing only.
func (s *System) SetFaultHook(h core.FaultHook) { s.Estimator.Guard.SetHook(h) }

// CheckModels runs the Model Monitor over every single-table COUNT model.
func (s *System) CheckModels() ([]monitor.TableReport, error) { return s.Monitor.CheckAll() }

// Workload generates the dataset's hybrid evaluation workload.
func (s *System) Workload(seed int64) (workload.Workload, error) {
	return workload.ByName(s.Dataset, seed)
}
