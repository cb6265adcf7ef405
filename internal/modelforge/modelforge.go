// Package modelforge implements the paper's ModelForge Service: a
// standalone training service that samples table data, runs the
// preprocessor, trains the Bayesian networks (routinely) and RBX
// (once, plus occasional fine-tuning), builds FactorJoin's buckets, writes
// everything to the model store for the Model Loader, reacts to Data
// Ingestor signals by retraining affected tables, and supports
// shard-specialized training when a table declares a shard key. Training
// never touches the query path — the paper's isolation requirement.
package modelforge

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"bytecard/internal/bn"
	"bytecard/internal/catalog"
	"bytecard/internal/core"
	"bytecard/internal/modelstore"
	"bytecard/internal/obs"
	"bytecard/internal/par"
	"bytecard/internal/preproc"
	"bytecard/internal/rbx"
	"bytecard/internal/sample"
	"bytecard/internal/storage"
)

// Config controls training.
type Config struct {
	// SampleRows caps the per-table training sample (default 20000).
	SampleRows int
	// MaxBins bounds BN discretization (default 32).
	MaxBins int
	// BucketCount sizes join buckets (default 200).
	BucketCount int
	// Shards is the shard count for shard-specialized training (default 4).
	Shards int
	// RetrainRows is the ingested-row threshold triggering retraining
	// (default 100000).
	RetrainRows int64
	// Seed drives sampling determinism.
	Seed int64
	// TrainWorkers bounds the worker pool parallelizing BN structure
	// learning and the FactorJoin build. Zero resolves to GOMAXPROCS.
	// Trained artifacts are byte-identical for every worker count.
	TrainWorkers int
	// Now is the clock (tests inject a fake).
	Now func() time.Time
}

func (c *Config) fill() {
	if c.SampleRows <= 0 {
		c.SampleRows = 20000
	}
	if c.MaxBins <= 0 {
		c.MaxBins = 32
	}
	if c.BucketCount <= 0 {
		c.BucketCount = 200
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.RetrainRows <= 0 {
		c.RetrainRows = 100000
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// RBXBaseName is the store key of the workload-independent base RBX model
// (shared across datasets — one offline training serves every workload).
const RBXBaseName = "rbx/base"

// ModelReport describes one trained artifact (Table 3 / Table 6 source).
type ModelReport struct {
	Name         string
	Kind         core.ModelKind
	Table        string
	SizeBytes    int64
	TrainSeconds float64
	// StructureSeconds and ParamSeconds break a BN's TrainSeconds into its
	// stages (zero for non-BN artifacts).
	StructureSeconds float64
	ParamSeconds     float64
}

// Report summarizes one TrainAll run.
type Report struct {
	Models       []ModelReport
	TotalSeconds float64
}

// Service trains and manages models for one dataset.
type Service struct {
	mu      sync.Mutex
	dataset string
	db      *storage.Database
	schema  *catalog.Schema
	store   *modelstore.Store
	cfg     Config
	pending map[string]int64
	pre     *preproc.Result
	// Retrained counts per-table retrains triggered by ingest signals.
	retrained map[string]int
	// obs records per-stage training timings (always non-nil).
	obs *obs.TrainMetrics
}

// New creates a service bound to one dataset's database, catalog, and
// artifact store.
func New(dataset string, db *storage.Database, schema *catalog.Schema, store *modelstore.Store, cfg Config) *Service {
	cfg.fill()
	return &Service{
		dataset:   dataset,
		db:        db,
		schema:    schema,
		store:     store,
		cfg:       cfg,
		pending:   map[string]int64{},
		retrained: map[string]int{},
		obs:       obs.NewTrainMetrics(),
	}
}

// Obs exposes the service's training metrics for system-wide snapshots.
func (s *Service) Obs() *obs.TrainMetrics { return s.obs }

// workers resolves the effective training worker count.
func (s *Service) workers() int { return par.TrainWorkers(s.cfg.TrainWorkers) }

// runPreprocLocked runs the Model Preprocessor (including the FactorJoin
// bucket build) and records its stage timing.
func (s *Service) runPreprocLocked() (*preproc.Result, error) {
	pre, err := preproc.Run(s.db, s.schema, preproc.Config{
		BucketCount: s.cfg.BucketCount,
		Workers:     s.workers(),
	})
	if err != nil {
		return nil, err
	}
	if pre.Buckets != nil {
		s.obs.FactorJoinSeconds.Observe(pre.Buckets.BuildSeconds)
	}
	return pre, nil
}

// aborted reports a cancelled or expired training context as a wrapped
// error — the checkpoint every long-running stage tests between units of
// work, so a hardened server's per-request deadline (or a dropped client)
// stops training at the next table/shard boundary instead of running on.
func aborted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("modelforge: training aborted: %w", err)
	}
	return nil
}

// compatContext is the single blessed root-context mint for the
// context-free compatibility wrappers (TrainAll, TrainTable, NotifyIngest,
// FineTuneRBX). Those entry points predate context threading and are kept
// for callers that have no deadline to impose — batch CLIs and tests;
// anything serving-path routes through the ...Context variants instead.
// Funneling every wrapper through here keeps the ctxflow exemption at
// exactly one annotated line.
func compatContext() context.Context {
	return context.Background() //bytecard:ctx-ok sole compatibility-wrapper root; deadline-bearing callers use the ...Context variants
}

// TrainAll runs the full pipeline: preprocess, build join buckets, train a
// BN per table (per shard where sharded), ensure the base RBX model
// exists, and store every artifact.
func (s *Service) TrainAll() (*Report, error) {
	return s.TrainAllContext(compatContext())
}

// TrainAllContext is TrainAll honoring a deadline/cancellation: the context
// is checked between tables (and shards), so an aborted run stops promptly
// and leaves only complete, committed artifacts behind.
func (s *Service) TrainAllContext(ctx context.Context) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	rep := &Report{}
	s.obs.Runs.Add(1)

	if err := aborted(ctx); err != nil {
		return nil, err
	}
	pre, err := s.runPreprocLocked()
	if err != nil {
		return nil, err
	}
	s.pre = pre

	if pre.Buckets != nil {
		data, err := pre.Buckets.Encode()
		if err != nil {
			return nil, err
		}
		name := s.dataset + "/factorjoin"
		if err := s.store.Put(core.Artifact{
			Name: name, Kind: core.KindFactorJoin, Timestamp: s.cfg.Now(), Data: data,
		}); err != nil {
			return nil, err
		}
		rep.Models = append(rep.Models, ModelReport{
			Name: name, Kind: core.KindFactorJoin,
			SizeBytes: pre.Buckets.SizeBytes(), TrainSeconds: pre.Buckets.BuildSeconds,
		})
	}

	for _, table := range s.db.TableNames() {
		reports, err := s.trainTableLocked(ctx, table)
		if err != nil {
			return nil, err
		}
		rep.Models = append(rep.Models, reports...)
	}

	if err := aborted(ctx); err != nil {
		return nil, err
	}
	rbxReports, err := s.ensureRBXLocked()
	if err != nil {
		return nil, err
	}
	rep.Models = append(rep.Models, rbxReports...)
	rep.TotalSeconds = time.Since(start).Seconds()
	return rep, nil
}

// TrainTableAt retrains one table stamping its artifacts with an explicit
// time — used for backfills and by tests that need deterministic version
// ordering.
func (s *Service) TrainTableAt(table string, at time.Time) ([]ModelReport, error) {
	s.mu.Lock()
	prev := s.cfg.Now
	s.cfg.Now = func() time.Time { return at }
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.cfg.Now = prev
		s.mu.Unlock()
	}()
	return s.TrainTable(table)
}

// TrainTable retrains one table's model(s) — the routine-training task.
func (s *Service) TrainTable(table string) ([]ModelReport, error) {
	return s.TrainTableContext(compatContext(), table)
}

// TrainTableContext is TrainTable honoring a deadline/cancellation.
func (s *Service) TrainTableContext(ctx context.Context, table string) ([]ModelReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pre == nil {
		pre, err := s.runPreprocLocked()
		if err != nil {
			return nil, err
		}
		s.pre = pre
	}
	return s.trainTableLocked(ctx, table)
}

func (s *Service) trainTableLocked(ctx context.Context, table string) ([]ModelReport, error) {
	if err := aborted(ctx); err != nil {
		return nil, err
	}
	t := s.db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("modelforge: unknown table %q", table)
	}
	cols := s.pre.Selected[table]
	if len(cols) == 0 {
		return nil, fmt.Errorf("modelforge: table %s has no trainable columns", table)
	}
	forced := map[string][]float64{}
	forcedNDV := map[string][]float64{}
	if s.pre.Buckets != nil {
		for _, col := range cols {
			if bounds, ok := s.pre.Buckets.BoundsFor(table, col); ok {
				forced[col] = bounds
				if ndv, ok := s.pre.Buckets.NDVFor(table, col); ok {
					forcedNDV[col] = ndv
				}
			}
		}
	}
	meta := s.schema.Table(table)
	if meta != nil && meta.ShardKey != "" {
		return s.trainShardedLocked(ctx, table, t, meta, cols, forced, forcedNDV)
	}
	model, err := s.trainOne(table, t, cols, forced, forcedNDV, func(int) bool { return true }, t.NumRows())
	if err != nil {
		return nil, err
	}
	return s.putBN(table, -1, model)
}

// trainShardedLocked trains one model per shard of the shard key's hash
// space — the paper's shard-specialized training for tables whose
// distribution varies across shards.
func (s *Service) trainShardedLocked(ctx context.Context, table string, t *storage.Table, meta *catalog.TableMeta, cols []string, forced, forcedNDV map[string][]float64) ([]ModelReport, error) {
	keyCol := t.ColByName(meta.ShardKey)
	if keyCol == nil {
		return nil, fmt.Errorf("modelforge: shard key %s missing from %s", meta.ShardKey, table)
	}
	shardOf := func(row int) int {
		h := fnv.New64a()
		v := keyCol.Value(row)
		fmt.Fprintf(h, "%v", v)
		return int(h.Sum64() % uint64(s.cfg.Shards))
	}
	// Exact shard populations for correct model weighting.
	counts := make([]int, s.cfg.Shards)
	for r := 0; r < t.NumRows(); r++ {
		counts[shardOf(r)]++
	}
	var out []ModelReport
	for shard := 0; shard < s.cfg.Shards; shard++ {
		if counts[shard] == 0 {
			continue
		}
		if err := aborted(ctx); err != nil {
			return nil, err
		}
		model, err := s.trainOne(table, t, cols, forced, forcedNDV, func(row int) bool { return shardOf(row) == shard }, counts[shard])
		if err != nil {
			return nil, err
		}
		reports, err := s.putBN(table, shard, model)
		if err != nil {
			return nil, err
		}
		out = append(out, reports...)
	}
	return out, nil
}

// trainOne samples matching rows and trains a BN.
func (s *Service) trainOne(table string, t *storage.Table, cols []string, forced, forcedNDV map[string][]float64, include func(row int) bool, population int) (*bn.Model, error) {
	// Reservoir sampling of row indices (the online sampling the paper
	// schedules during low-activity periods).
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ int64(len(table))<<8 ^ int64(population)))
	var rows []int
	seen := 0
	for r := 0; r < t.NumRows(); r++ {
		if !include(r) {
			continue
		}
		seen++
		if len(rows) < s.cfg.SampleRows {
			rows = append(rows, r)
		} else if j := rng.Intn(seen); j < s.cfg.SampleRows {
			rows[j] = r
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("modelforge: no rows to train %s", table)
	}
	data := make([][]float64, len(cols))
	for ci, col := range cols {
		c := t.ColByName(col)
		data[ci] = make([]float64, len(rows))
		for ri, r := range rows {
			data[ci][ri] = c.Numeric(r)
		}
	}
	model, err := bn.Train(bn.TrainConfig{
		Table:        table,
		ColNames:     cols,
		Sample:       data,
		Rows:         float64(population),
		MaxBins:      s.cfg.MaxBins,
		ForcedBounds: forced,
		ForcedBinNDV: forcedNDV,
		Workers:      s.workers(),
	})
	if err != nil {
		return nil, err
	}
	s.obs.TablesTrained.Add(1)
	s.obs.StructureSeconds.Observe(model.StructureSeconds)
	s.obs.ParamSeconds.Observe(model.ParamSeconds)
	return model, nil
}

func (s *Service) putBN(table string, shard int, model *bn.Model) ([]ModelReport, error) {
	data, err := model.Encode()
	if err != nil {
		return nil, err
	}
	name := s.dataset + "/bn/" + table
	if shard >= 0 {
		name = fmt.Sprintf("%s#%d", name, shard)
	}
	if err := s.store.Put(core.Artifact{
		Name: name, Kind: core.KindBN, Table: table, Shard: shard,
		Timestamp: s.cfg.Now(), Data: data,
	}); err != nil {
		return nil, err
	}
	return []ModelReport{{
		Name: name, Kind: core.KindBN, Table: table,
		SizeBytes: int64(len(data)), TrainSeconds: model.TrainSeconds,
		StructureSeconds: model.StructureSeconds, ParamSeconds: model.ParamSeconds,
	}}, nil
}

// ensureRBXLocked stores the process's base RBX model (rbx.Base) only if
// the store lacks one (workload independence: one training serves every
// dataset).
func (s *Service) ensureRBXLocked() ([]ModelReport, error) {
	if _, err := s.store.Get(RBXBaseName); err == nil {
		return nil, nil
	}
	data, trainSeconds, err := rbx.Base()
	if err != nil {
		return nil, err
	}
	if err := s.store.Put(core.Artifact{
		Name: RBXBaseName, Kind: core.KindRBX, Timestamp: s.cfg.Now(), Data: data,
	}); err != nil {
		return nil, err
	}
	return []ModelReport{{
		Name: RBXBaseName, Kind: core.KindRBX,
		SizeBytes: int64(len(data)), TrainSeconds: trainSeconds,
	}}, nil
}

// NotifyIngest is the Data Ingestor signal: once enough rows accumulate
// for a table, the service retrains its model(s) from fresh samples.
func (s *Service) NotifyIngest(table string, rows int64) error {
	return s.NotifyIngestContext(compatContext(), table, rows)
}

// NotifyIngestContext is NotifyIngest honoring a deadline/cancellation on
// the retrain it may trigger.
func (s *Service) NotifyIngestContext(ctx context.Context, table string, rows int64) error {
	s.mu.Lock()
	s.pending[table] += rows
	due := s.pending[table] >= s.cfg.RetrainRows
	if due {
		s.pending[table] = 0
	}
	s.mu.Unlock()
	if !due {
		return nil
	}
	if _, err := s.TrainTableContext(ctx, table); err != nil {
		return err
	}
	s.mu.Lock()
	s.retrained[table]++
	s.mu.Unlock()
	return nil
}

// RetrainCount reports how many ingest-triggered retrains a table has had.
func (s *Service) RetrainCount(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retrained[table]
}

// FineTuneRBX runs the calibration protocol for one problem column: the
// base model is fine-tuned on observed profiles plus synthetic high-NDV
// augmentation and stored back with a fresh timestamp.
func (s *Service) FineTuneRBX(column string, profiles []sample.Profile, truths []float64, cfg rbx.FineTuneConfig) error {
	return s.FineTuneRBXContext(compatContext(), column, profiles, truths, cfg)
}

// FineTuneRBXContext is FineTuneRBX honoring a deadline/cancellation.
func (s *Service) FineTuneRBXContext(ctx context.Context, column string, profiles []sample.Profile, truths []float64, cfg rbx.FineTuneConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := aborted(ctx); err != nil {
		return err
	}
	art, err := s.store.Get(RBXBaseName)
	if err != nil {
		return fmt.Errorf("modelforge: base RBX missing: %w", err)
	}
	model, err := rbx.Decode(art.Data)
	if err != nil {
		return err
	}
	if err := model.FineTune(column, profiles, truths, cfg); err != nil {
		return err
	}
	data, err := model.Encode()
	if err != nil {
		return err
	}
	return s.store.Put(core.Artifact{
		Name: RBXBaseName, Kind: core.KindRBX, Timestamp: s.cfg.Now(), Data: data,
	})
}
