package obs

// EstimatorMetrics is the shared counter block of one core.Estimator and
// every traced/strict view derived from it. Query threads update it with
// atomic adds; Snapshot serializes it for System.Metrics.
type EstimatorMetrics struct {
	// Calls counts estimate requests; Fallbacks counts requests served by
	// the traditional estimator after a model failure.
	Calls, Fallbacks Counter
	// ModelCalls counts guarded model invocations (several per request);
	// ModelFailures counts the ones the guard or breaker rejected.
	ModelCalls, ModelFailures Counter
	// JoinVec is the join-vector cache's own counter block (nil on views
	// with private request counters); Snapshot reads the CacheHits,
	// CacheMisses and CacheEvictions digest fields from it, so each probe
	// is counted once.
	JoinVec *CacheMetrics
	// ModelLatency is the guarded model-call latency in nanoseconds.
	ModelLatency Histogram
	// QError holds observed q-errors wherever ground truth is available
	// (Model Monitor probes, executed plans).
	QError Histogram
	// Sources counts value-producing estimates by source ("bn",
	// "factorjoin", "rbx", fallback estimator names).
	Sources LabeledCounter
}

// NewEstimatorMetrics returns a zeroed metrics block.
func NewEstimatorMetrics() *EstimatorMetrics { return &EstimatorMetrics{} }

// EstimatorSnapshot is the serializable digest of EstimatorMetrics.
type EstimatorSnapshot struct {
	Calls          int64             `json:"calls"`
	Fallbacks      int64             `json:"fallbacks"`
	ModelCalls     int64             `json:"model_calls"`
	ModelFailures  int64             `json:"model_failures"`
	CacheHits      int64             `json:"cache_hits"`
	CacheMisses    int64             `json:"cache_misses"`
	CacheEvictions int64             `json:"cache_evictions"`
	ModelLatencyNs HistogramSnapshot `json:"model_latency_ns"`
	QError         HistogramSnapshot `json:"q_error"`
	Sources        map[string]int64  `json:"sources"`
}

// Snapshot digests the metrics block (nil-safe: returns zeroes).
func (m *EstimatorMetrics) Snapshot() EstimatorSnapshot {
	if m == nil {
		return EstimatorSnapshot{Sources: map[string]int64{}}
	}
	jv := m.JoinVec.Snapshot()
	return EstimatorSnapshot{
		Calls:          m.Calls.Load(),
		Fallbacks:      m.Fallbacks.Load(),
		ModelCalls:     m.ModelCalls.Load(),
		ModelFailures:  m.ModelFailures.Load(),
		CacheHits:      jv.Hits,
		CacheMisses:    jv.Misses,
		CacheEvictions: jv.Evictions,
		ModelLatencyNs: m.ModelLatency.Snapshot(),
		QError:         m.QError.Snapshot(),
		Sources:        m.Sources.Snapshot(),
	}
}

// CacheMetrics is the uniform counter block for ByteCard's derived
// caches (every internal/lru.Cache carries one). They all hold values
// derived from loaded model state, so alongside the usual
// hit/miss/eviction counters they count Invalidations: entries dropped
// because a model retrain/ingest made them stale, the event that
// distinguishes "cache too small" (evictions) from "models churning"
// (invalidations). Bytes and Entries are gauges tracking residency.
type CacheMetrics struct {
	// Hits and Misses count lookups by outcome.
	Hits, Misses Counter
	// Evictions counts entries dropped for capacity (LRU order);
	// Invalidations counts entries dropped because model state changed.
	Evictions, Invalidations Counter
	// Bytes and Entries track current residency.
	Bytes, Entries Gauge
}

// CacheSnapshot is the serializable digest of CacheMetrics.
type CacheSnapshot struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Bytes         int64 `json:"bytes"`
	Entries       int64 `json:"entries"`
}

// Snapshot digests the metrics block (nil-safe: returns zeroes).
func (m *CacheMetrics) Snapshot() CacheSnapshot {
	if m == nil {
		return CacheSnapshot{}
	}
	return CacheSnapshot{
		Hits:          m.Hits.Load(),
		Misses:        m.Misses.Load(),
		Evictions:     m.Evictions.Load(),
		Invalidations: m.Invalidations.Load(),
		Bytes:         m.Bytes.Load(),
		Entries:       m.Entries.Load(),
	}
}

// TrainMetrics aggregates ModelForge training observability: how many
// pipelines and per-table trainings ran, and where each training's wall
// time went stage by stage — BN structure learning (the pairwise-MI matrix
// plus the Chow-Liu spanning tree), BN parameter learning (CPT counting
// plus the EM sweeps), and the FactorJoin bucket build. Per-stage timings
// are what make training regressions attributable: a slow retrain shows up
// as one histogram moving, not just a bigger total.
type TrainMetrics struct {
	// Runs counts full TrainAll pipelines; TablesTrained counts BN models
	// trained (one per table, or per shard where sharded), including
	// ingest-triggered retrains.
	Runs, TablesTrained Counter
	// StructureSeconds and ParamSeconds are per-BN stage wall times.
	StructureSeconds, ParamSeconds Histogram
	// FactorJoinSeconds is the join-bucket build wall time per preprocessor
	// run.
	FactorJoinSeconds Histogram
}

// NewTrainMetrics returns a zeroed metrics block.
func NewTrainMetrics() *TrainMetrics { return &TrainMetrics{} }

// TrainSnapshot is the serializable digest of TrainMetrics.
type TrainSnapshot struct {
	Runs              int64             `json:"runs"`
	TablesTrained     int64             `json:"tables_trained"`
	StructureSeconds  HistogramSnapshot `json:"structure_seconds"`
	ParamSeconds      HistogramSnapshot `json:"param_seconds"`
	FactorJoinSeconds HistogramSnapshot `json:"factorjoin_seconds"`
}

// Snapshot digests the metrics block (nil-safe: returns zeroes).
func (m *TrainMetrics) Snapshot() TrainSnapshot {
	if m == nil {
		return TrainSnapshot{}
	}
	return TrainSnapshot{
		Runs:              m.Runs.Load(),
		TablesTrained:     m.TablesTrained.Load(),
		StructureSeconds:  m.StructureSeconds.Snapshot(),
		ParamSeconds:      m.ParamSeconds.Snapshot(),
		FactorJoinSeconds: m.FactorJoinSeconds.Snapshot(),
	}
}

// StoreMetrics aggregates model-store durability observability: how often
// artifacts were written and read, and every corruption event the store's
// checksum layer caught. A store that is quarantining generations and
// serving last-known-good fallbacks still works — but it is running on
// stale models, and these counters are how the Monitor sees that.
type StoreMetrics struct {
	// Puts counts committed artifact writes; Gets counts artifact reads.
	Puts, Gets Counter
	// Corruptions counts generations that failed verification on read
	// (checksum mismatch, truncation, or an unreadable payload file).
	Corruptions Counter
	// Quarantines counts generations moved aside after failing
	// verification (one corruption may quarantine several generations).
	Quarantines Counter
	// Fallbacks counts Gets served by an older generation because a newer
	// one was quarantined — the store running on stale models.
	Fallbacks Counter
	// BadManifests counts manifests that could not be parsed and were
	// quarantined during a directory scan.
	BadManifests Counter
}

// NewStoreMetrics returns a zeroed metrics block.
func NewStoreMetrics() *StoreMetrics { return &StoreMetrics{} }

// StoreSnapshot is the serializable digest of StoreMetrics.
type StoreSnapshot struct {
	Puts         int64 `json:"puts"`
	Gets         int64 `json:"gets"`
	Corruptions  int64 `json:"corruptions"`
	Quarantines  int64 `json:"quarantines"`
	Fallbacks    int64 `json:"fallbacks"`
	BadManifests int64 `json:"bad_manifests"`
}

// Snapshot digests the metrics block (nil-safe: returns zeroes).
func (m *StoreMetrics) Snapshot() StoreSnapshot {
	if m == nil {
		return StoreSnapshot{}
	}
	return StoreSnapshot{
		Puts:         m.Puts.Load(),
		Gets:         m.Gets.Load(),
		Corruptions:  m.Corruptions.Load(),
		Quarantines:  m.Quarantines.Load(),
		Fallbacks:    m.Fallbacks.Load(),
		BadManifests: m.BadManifests.Load(),
	}
}

// ResidualMetrics aggregates residual-corrector observability: how often a
// learned correction was applied versus skipped (no confident bucket yet),
// how many executed-truth tuples the corrector has absorbed, how many
// drift-triggered refits the Monitor ran, the magnitude of applied
// correction factors, and the q-error of the raw estimate against truth
// (PreQError) next to the q-error of the corrected estimate the planner
// actually used (PostQError) — the pair that shows whether the corrector
// is helping.
type ResidualMetrics struct {
	// Applications counts estimates multiplied by a learned factor;
	// Skipped counts lookups answered without correction (bucket missing
	// or below the observation floor).
	Applications, Skipped Counter
	// Observations counts (estimate, executed truth) tuples absorbed.
	Observations Counter
	// Refits counts drift-triggered refits (bucket confidence halved).
	Refits Counter
	// FactorMagnitude holds max(f, 1/f) of each applied correction factor
	// (the histogram's log buckets collapse everything <= 1 into bucket 0,
	// so shrink factors are folded onto the same magnitude axis as growth
	// factors).
	FactorMagnitude Histogram
	// PreQError and PostQError compare the uncorrected and corrected
	// estimate against the same executed truth.
	PreQError, PostQError Histogram
}

// NewResidualMetrics returns a zeroed metrics block.
func NewResidualMetrics() *ResidualMetrics { return &ResidualMetrics{} }

// ResidualSnapshot is the serializable digest of ResidualMetrics.
type ResidualSnapshot struct {
	Applications    int64             `json:"applications"`
	Skipped         int64             `json:"skipped"`
	Observations    int64             `json:"observations"`
	Refits          int64             `json:"refits"`
	FactorMagnitude HistogramSnapshot `json:"factor_magnitude"`
	PreQError       HistogramSnapshot `json:"pre_q_error"`
	PostQError      HistogramSnapshot `json:"post_q_error"`
}

// Snapshot digests the metrics block (nil-safe: returns zeroes).
func (m *ResidualMetrics) Snapshot() ResidualSnapshot {
	if m == nil {
		return ResidualSnapshot{}
	}
	return ResidualSnapshot{
		Applications:    m.Applications.Load(),
		Skipped:         m.Skipped.Load(),
		Observations:    m.Observations.Load(),
		Refits:          m.Refits.Load(),
		FactorMagnitude: m.FactorMagnitude.Snapshot(),
		PreQError:       m.PreQError.Snapshot(),
		PostQError:      m.PostQError.Snapshot(),
	}
}

// EngineMetrics aggregates query-engine observability: volumes, planning
// and execution latency, and the q-error of the optimizer's final-plan
// cardinality against the executed truth.
type EngineMetrics struct {
	// Queries counts executed statements.
	Queries Counter
	// PlanLatency and ExecLatency are per-query nanosecond histograms.
	PlanLatency, ExecLatency Histogram
	// PlanQError compares each plan's estimated final cardinality with the
	// exact joined cardinality the executor observed.
	PlanQError Histogram
	// BlocksRead and BlocksSkipped accumulate per-query block I/O: blocks
	// charged by scans versus blocks zone-map pruning skipped without
	// reading (the pushdown scan contract's headline observable).
	BlocksRead, BlocksSkipped Counter
}

// NewEngineMetrics returns a zeroed metrics block.
func NewEngineMetrics() *EngineMetrics { return &EngineMetrics{} }

// EngineSnapshot is the serializable digest of EngineMetrics.
type EngineSnapshot struct {
	Queries       int64             `json:"queries"`
	PlanLatencyNs HistogramSnapshot `json:"plan_latency_ns"`
	ExecLatencyNs HistogramSnapshot `json:"exec_latency_ns"`
	PlanQError    HistogramSnapshot `json:"plan_q_error"`
	BlocksRead    int64             `json:"blocks_read"`
	BlocksSkipped int64             `json:"blocks_skipped"`
}

// Snapshot digests the metrics block (nil-safe: returns zeroes).
func (m *EngineMetrics) Snapshot() EngineSnapshot {
	if m == nil {
		return EngineSnapshot{}
	}
	return EngineSnapshot{
		Queries:       m.Queries.Load(),
		PlanLatencyNs: m.PlanLatency.Snapshot(),
		ExecLatencyNs: m.ExecLatency.Snapshot(),
		PlanQError:    m.PlanQError.Snapshot(),
		BlocksRead:    m.BlocksRead.Load(),
		BlocksSkipped: m.BlocksSkipped.Load(),
	}
}
