package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bytecard/internal/bn"
	"bytecard/internal/factorjoin"
	"bytecard/internal/obs"
	"bytecard/internal/rbx"
)

// Options configure the Inference Engine's size checker and circuit
// breakers.
type Options struct {
	// MaxModelBytes rejects any single model above this size (the
	// per-model size check); 0 means 64 MiB.
	MaxModelBytes int64
	// MaxTotalBytes caps the cumulative loaded size of the BN models;
	// least recently used tables are evicted beyond it, except the table
	// just loaded, which stays even if its models alone exceed it. 0 means
	// 512 MiB.
	MaxTotalBytes int64
	// Breaker tunes the per-model-key circuit breakers (zero values take
	// the BreakerConfig defaults).
	Breaker BreakerConfig
}

func (o *Options) fill() {
	if o.MaxModelBytes <= 0 {
		o.MaxModelBytes = 64 << 20
	}
	if o.MaxTotalBytes <= 0 {
		o.MaxTotalBytes = 512 << 20
	}
	o.Breaker.fill()
}

// bnEntry is one loaded single-table model (possibly one shard of a
// shard-specialized set) with its immutable inference context.
type bnEntry struct {
	ctx       *bn.Context
	shard     int
	timestamp time.Time
	size      int64
}

// tableModels is one table's BN shards in ascending shard order, with the
// contexts, latest timestamp and total size gathered once at load; a load
// publishes a new one.
type tableModels struct {
	shards []*bnEntry
	ctxs   []*bn.Context
	at     time.Time
	size   int64
	// used, its one mutable field, is the registry clock at the table's
	// last lookup or load: the order MaxTotalBytes evicts by.
	used atomic.Int64
}

// stamped is a whole-warehouse model with its artifact timestamp.
type stamped[T any] struct {
	model *T
	at    time.Time
}

// replace installs model unless the installed version is as new.
func (s *stamped[T]) replace(model *T, at time.Time) bool {
	if s.model != nil && !at.After(s.at) {
		return false
	}
	s.model, s.at = model, at
	return true
}

// Models is one immutable generation of the registry's loaded models:
// every table's BN contexts, the FactorJoin and RBX models with their
// artifact timestamps, and the disabled set. A per-query estimator view
// pins one, so every estimate of the query reads one generation, however
// many loads land meanwhile; holders must not modify what it returns.
type Models struct {
	generation uint64
	tables     map[string]*tableModels
	fj         stamped[factorjoin.Model]
	rbx        stamped[rbx.Model]
	disabled   map[string]bool
	clock      *atomic.Int64
}

// BN returns a table's shard contexts and marks the table recently used;
// ok is false when the table has no usable model (absent or disabled).
func (m *Models) BN(table string) (ctxs []*bn.Context, ok bool) {
	t := m.tables[table]
	if t == nil || m.disabled["bn:"+table] {
		return nil, false
	}
	t.used.Store(m.clock.Add(1))
	return t.ctxs, true
}

// FactorJoin returns the join model, or nil when absent or disabled.
func (m *Models) FactorJoin() *factorjoin.Model {
	if m.disabled["factorjoin"] {
		return nil
	}
	return m.fj.model
}

// RBX returns the NDV model, or nil when absent or disabled.
func (m *Models) RBX() *rbx.Model {
	if m.disabled["rbx"] {
		return nil
	}
	return m.rbx.model
}

// timestamp returns the installed version time of a model key
// ("bn:<table>", "factorjoin", "rbx"); zero when absent.
func (m *Models) timestamp(key string) time.Time {
	switch key {
	case "factorjoin":
		return m.fj.at
	case "rbx":
		return m.rbx.at
	}
	if t := m.tables[strings.TrimPrefix(key, "bn:")]; t != nil {
		return t.at
	}
	return time.Time{}
}

// InferenceEngine is the central hub for deployed inference algorithms: it
// loads and validates models, builds their immutable inference contexts
// (initContext), enforces size limits with LRU retention, and serves
// concurrent query threads. The loaded models are published as one
// immutable Models value through an atomic pointer, so model reads take no
// lock; loads, enables and disables build the next value under one writer
// mutex. Circuit breakers are live state behind their own mutex.
type InferenceEngine struct {
	opts Options

	models  atomic.Pointer[Models]
	writeMu sync.Mutex
	// clock orders table use for retention (Models.clock).
	clock atomic.Int64

	// counters for observability
	loads, rejects, evictions atomic.Int64

	// mu guards the breakers and their clock.
	mu       sync.Mutex
	breakers map[string]*breaker
	now      func() time.Time

	// cacheMu guards the derived-cache registry (see RegisterCache). A
	// separate mutex: invalidation fans out to caches that take their own
	// locks.
	cacheMu sync.Mutex
	caches  []namedCache // in registration order
}

// NewInferenceEngine creates an empty engine.
func NewInferenceEngine(opts Options) *InferenceEngine {
	opts.fill()
	e := &InferenceEngine{opts: opts, breakers: map[string]*breaker{}, now: time.Now}
	e.models.Store(&Models{tables: map[string]*tableModels{}, disabled: map[string]bool{}, clock: &e.clock})
	return e
}

// Models returns the current generation of loaded models.
func (e *InferenceEngine) Models() *Models { return e.models.Load() }

// SetClock overrides the breaker clock (deterministic cooldown tests).
func (e *InferenceEngine) SetClock(now func() time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
}

// LoadModel implements the loadModel/validate/initContext sequence for one
// artifact, one path for every kind: decode and health-check, size-check,
// skip an artifact no newer than the installed version (timestamp-based
// loading), then publish the next generation. A decode, health or size
// failure counts in Stats.Rejects. A successful load then invalidates the
// registered derived caches — table-scoped for BN artifacts, a full flush
// for the whole-warehouse models. Models are swapped before caches are
// invalidated, so with each cache's epoch-checked Put (see package lru) no
// cache keeps an estimate derived from a replaced model.
func (e *InferenceEngine) LoadModel(a Artifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	install, err := e.decode(a)
	if err != nil {
		err = fmt.Errorf("core: %s artifact %s failed validation: %w", a.Kind, a.Name, err)
	} else if int64(len(a.Data)) > e.opts.MaxModelBytes {
		err = fmt.Errorf("core: %s artifact %s (%d bytes) exceeds per-model limit %d", a.Kind, a.Name, len(a.Data), e.opts.MaxModelBytes)
	}
	if err != nil {
		e.rejects.Add(1)
		return err
	}
	if !e.publish(install) {
		return nil // stale artifact; keep the newer model
	}
	e.loads.Add(1)
	if a.Kind == KindBN {
		e.invalidateCacheTables(a.Table)
	} else {
		e.FlushCaches()
	}
	return nil
}

// decode decodes and health-checks an artifact and returns what installs
// it into the next generation, false when the installed version is as new.
func (e *InferenceEngine) decode(a Artifact) (func(*Models) bool, error) {
	switch a.Kind {
	case KindBN:
		model, err := bn.Decode(a.Data)
		if err != nil {
			return nil, err
		}
		ctx, err := model.NewContext() // initContext
		entry := &bnEntry{ctx: ctx, shard: a.Shard, timestamp: a.Timestamp, size: int64(len(a.Data))}
		return func(m *Models) bool { return e.installBN(m, a.Table, entry) }, err
	case KindFactorJoin:
		model, err := factorjoin.Decode(a.Data)
		return func(m *Models) bool { return m.fj.replace(model, a.Timestamp) }, err
	default: // KindRBX: Validate admits no other kind
		model, err := rbx.Decode(a.Data)
		return func(m *Models) bool { return m.rbx.replace(model, a.Timestamp) }, err
	}
}

// installBN makes entry its table's shard unless that shard's installed
// version is as new, then evicts the least recently used other tables
// until MaxTotalBytes holds. The table just loaded is never evicted: one
// whose shards alone exceed the bound evicts every other table and is
// served with all its shards.
func (e *InferenceEngine) installBN(m *Models, table string, entry *bnEntry) bool {
	t := &tableModels{shards: []*bnEntry{entry}}
	if old := m.tables[table]; old != nil {
		for _, s := range old.shards {
			if s.shard != entry.shard {
				t.shards = append(t.shards, s)
			} else if !entry.timestamp.After(s.timestamp) {
				return false
			}
		}
	}
	sort.Slice(t.shards, func(i, j int) bool { return t.shards[i].shard < t.shards[j].shard })
	for _, s := range t.shards {
		t.ctxs = append(t.ctxs, s.ctx)
		t.size += s.size
		if s.timestamp.After(t.at) {
			t.at = s.timestamp
		}
	}
	t.used.Store(e.clock.Add(1))
	m.tables = maps.Clone(m.tables)
	m.tables[table] = t
	var total int64
	for _, o := range m.tables {
		total += o.size
	}
	for total > e.opts.MaxTotalBytes {
		var coldest string
		for name, o := range m.tables {
			if o != t && (coldest == "" || o.used.Load() < m.tables[coldest].used.Load()) {
				coldest = name
			}
		}
		if coldest == "" {
			break
		}
		total -= m.tables[coldest].size
		delete(m.tables, coldest)
		e.evictions.Add(1)
	}
	return true
}

// publish builds the next generation under the writer mutex: edit changes
// a copy of the current one, or reports false to publish nothing.
func (e *InferenceEngine) publish(edit func(*Models) bool) bool {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	next := *e.models.Load()
	if !edit(&next) {
		return false
	}
	next.generation++
	e.models.Store(&next)
	return true
}

// setDisabled publishes a generation with key marked unusable (estimation
// falls back to the traditional estimator: the Model Monitor's guardrail)
// or usable again with a reset breaker, then flushes the derived caches,
// which may hold the replaced answers. Keys: "bn:<table>", "factorjoin",
// "rbx", "rbx:<table.column>". Callers outside core use Admin().
func (e *InferenceEngine) setDisabled(key string, off bool) {
	if !off {
		e.mu.Lock()
		if b := e.breakers[key]; b != nil {
			b.reset()
		}
		e.mu.Unlock()
	}
	e.publish(func(m *Models) bool {
		m.disabled = maps.Clone(m.disabled)
		if off {
			m.disabled[key] = true
		} else {
			delete(m.disabled, key)
		}
		return true
	})
	e.FlushCaches()
}

// Allow reports whether a model key may serve an inference right now (see
// admit); callers must follow up with RecordSuccess or RecordFailure.
func (e *InferenceEngine) Allow(key string) bool { return e.admit(e.Models(), key) == nil }

// admit is the degradation ladder's one admission verdict: nil when key may
// serve now, else the cause to fall back — disabled in m, or its live
// breaker open (one past its cooldown turns half-open to admit a probe).
func (e *InferenceEngine) admit(m *Models, key string) *ModelError {
	outcome := obs.OutcomeDisabled
	if !m.disabled[key] {
		e.mu.Lock()
		defer e.mu.Unlock()
		if b := e.breakers[key]; b == nil || b.allow(e.now()) {
			return nil
		}
		outcome = obs.OutcomeBreakerOpen
	}
	return &ModelError{Key: key, Outcome: outcome, Msg: fmt.Sprintf("core: %s unavailable (breaker open or disabled)", key)}
}

// RecordFailure feeds one failed model call into the key's breaker,
// creating it on first use.
func (e *InferenceEngine) RecordFailure(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.breakers[key]
	if b == nil {
		b = newBreaker(e.opts.Breaker)
		e.breakers[key] = b
	}
	b.recordFailure(e.now())
}

// RecordSuccess feeds one successful model call into the key's breaker (a
// no-op for keys that never failed).
func (e *InferenceEngine) RecordSuccess(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b := e.breakers[key]; b != nil {
		b.recordSuccess()
	}
}

// breakerState returns a key's breaker state (BreakerClosed for keys that
// never tripped).
func (e *InferenceEngine) breakerState(key string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b := e.breakers[key]; b != nil {
		return b.state
	}
	return BreakerClosed
}

// Stats summarizes the registry for observability, including the full
// degradation-ladder state: Monitor-disabled keys and circuit breakers.
type Stats struct {
	// Generation is the current Models generation.
	Generation uint64
	Tables     int
	TotalSize  int64
	Loads      int64
	Rejects    int64
	Evictions  int64
	HasFJ      bool
	HasRBX     bool
	// Disabled lists keys the Model Monitor turned off (sorted).
	Disabled []string
	// Breakers lists every breaker that has recorded at least one
	// failure, sorted by key.
	Breakers []BreakerInfo
	// BreakerTrips totals closed→open transitions across all keys.
	BreakerTrips int64
}

// Snapshot returns current registry statistics.
func (e *InferenceEngine) Snapshot() Stats {
	m := e.Models()
	s := Stats{
		Generation: m.generation,
		Tables:     len(m.tables),
		Loads:      e.loads.Load(),
		Rejects:    e.rejects.Load(),
		Evictions:  e.evictions.Load(),
		HasFJ:      m.fj.model != nil,
		HasRBX:     m.rbx.model != nil,
	}
	for _, t := range m.tables {
		s.TotalSize += t.size
	}
	for key := range m.disabled {
		s.Disabled = append(s.Disabled, key)
	}
	sort.Strings(s.Disabled)
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, b := range e.breakers {
		s.Breakers = append(s.Breakers, BreakerInfo{
			Key:                 key,
			State:               b.state,
			ConsecutiveFailures: b.consecutive,
			Failures:            b.failures,
			Trips:               b.trips,
		})
		s.BreakerTrips += b.trips
	}
	sort.Slice(s.Breakers, func(i, j int) bool { return s.Breakers[i].Key < s.Breakers[j].Key })
	return s
}
