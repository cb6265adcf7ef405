package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bytecard/internal/bn"
	"bytecard/internal/factorjoin"
	"bytecard/internal/lru"
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
	model     *bn.Model
	ctx       *bn.Context
	shard     int
	timestamp time.Time
	size      int64
}

// InferenceEngine is the central hub for deployed inference algorithms: it
// loads and validates models, builds their immutable inference contexts
// (initContext), enforces size limits with LRU retention, and serves
// concurrent query threads: the contexts it hands out are immutable, so
// estimation itself runs without any registry lock. Lookups do lock —
// BNContexts takes the exclusive lock briefly, because it moves the table
// to the front of the retention LRU (under the read lock, concurrent
// lookups would queue on the LRU's own mutex instead, a worse tail); the
// whole-warehouse model getters (FactorJoin, RBX, ...) take the read lock.
type InferenceEngine struct {
	opts Options

	mu sync.RWMutex
	// tables holds each table's BN shard entries in ascending shard order,
	// charged the sum of their artifact sizes, capped at MaxTotalBytes. A
	// resident slice is never modified: a load publishes a new one.
	tables   *lru.Cache[string, []*bnEntry]
	fj       *factorjoin.Model
	fjStamp  time.Time
	rbxModel *rbx.Model
	rbxStamp time.Time
	disabled map[string]bool
	breakers map[string]*breaker
	now      func() time.Time

	// counters for observability
	loads, rejects int64

	// cacheMu guards the derived-cache registry (see RegisterCache). A
	// separate mutex: invalidation fans out to caches that take their own
	// locks, and must never run under e.mu.
	cacheMu    sync.Mutex
	caches     map[string]DerivedCache
	cacheNames []string // registration order
}

// NewInferenceEngine creates an empty engine.
func NewInferenceEngine(opts Options) *InferenceEngine {
	opts.fill()
	return &InferenceEngine{
		opts:     opts,
		tables:   lru.NewBytes[string, []*bnEntry](opts.MaxTotalBytes),
		disabled: map[string]bool{},
		breakers: map[string]*breaker{},
		now:      time.Now,
	}
}

// SetClock overrides the breaker clock (deterministic cooldown tests).
func (e *InferenceEngine) SetClock(now func() time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
}

// LoadModel implements the loadModel/validate/initContext sequence for one
// artifact: decode, health-check, size-check, build the immutable context,
// and swap it into the registry. Artifacts older than the installed version
// are ignored (timestamp-based loading). A successful load invalidates the
// registered derived caches — table-scoped for BN artifacts, a full flush
// for the whole-warehouse models — so no cache ever serves an estimate
// derived from a replaced model.
func (e *InferenceEngine) LoadModel(a Artifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	var err error
	switch a.Kind {
	case KindBN:
		err = e.loadBN(a)
	case KindFactorJoin:
		err = e.loadFJ(a)
	case KindRBX:
		err = e.loadRBX(a)
	default:
		return fmt.Errorf("core: unknown model kind %q", a.Kind)
	}
	if err != nil {
		return err
	}
	// Invalidate after the swap and outside e.mu (caches lock themselves).
	if a.Kind == KindBN {
		e.invalidateCacheTables(a.Table)
	} else {
		e.FlushCaches()
	}
	return nil
}

func (e *InferenceEngine) loadBN(a Artifact) error {
	model, err := bn.Decode(a.Data) // decode + health detector
	if err != nil {
		e.mu.Lock()
		e.rejects++
		e.mu.Unlock()
		return fmt.Errorf("core: BN artifact %s failed validation: %w", a.Name, err)
	}
	size := int64(len(a.Data))
	if size > e.opts.MaxModelBytes {
		e.mu.Lock()
		e.rejects++
		e.mu.Unlock()
		return fmt.Errorf("core: BN artifact %s (%d bytes) exceeds per-model limit %d", a.Name, size, e.opts.MaxModelBytes)
	}
	ctx, err := model.NewContext() // initContext
	if err != nil {
		return fmt.Errorf("core: BN artifact %s context: %w", a.Name, err)
	}
	entry := &bnEntry{model: model, ctx: ctx, shard: a.Shard, timestamp: a.Timestamp, size: size}

	e.mu.Lock()
	defer e.mu.Unlock()
	old, _ := e.tables.Peek(a.Table)
	shards := []*bnEntry{entry}
	total := size
	for _, s := range old {
		if s.shard != a.Shard {
			shards = append(shards, s)
			total += s.size
		} else if !a.Timestamp.After(s.timestamp) {
			return nil // stale artifact; keep the newer model
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].shard < shards[j].shard })
	// The table just loaded is never evicted: charged at most the whole
	// bound, a table whose models alone exceed it evicts every other table
	// and is served with all its shards.
	e.tables.Put(a.Table, shards, min(total, e.opts.MaxTotalBytes), nil)
	e.loads++
	return nil
}

func (e *InferenceEngine) loadFJ(a Artifact) error {
	model, err := factorjoin.Decode(a.Data)
	if err != nil {
		return fmt.Errorf("core: FactorJoin artifact %s failed validation: %w", a.Name, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fj != nil && !a.Timestamp.After(e.fjStamp) {
		return nil
	}
	e.fj = model
	e.fjStamp = a.Timestamp
	e.loads++
	return nil
}

func (e *InferenceEngine) loadRBX(a Artifact) error {
	model, err := rbx.Decode(a.Data)
	if err != nil {
		return fmt.Errorf("core: RBX artifact %s failed validation: %w", a.Name, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rbxModel != nil && !a.Timestamp.After(e.rbxStamp) {
		return nil
	}
	e.rbxModel = model
	e.rbxStamp = a.Timestamp
	e.loads++
	return nil
}

// BNContexts returns the immutable contexts of a table's models (one per
// shard) and marks the table recently used. ok is false when the table has
// no usable model (absent or disabled).
func (e *InferenceEngine) BNContexts(table string) ([]*bn.Context, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.disabled["bn:"+table] {
		return nil, false
	}
	shards, ok := e.tables.Get(table)
	if !ok {
		return nil, false
	}
	out := make([]*bn.Context, len(shards))
	for i, s := range shards {
		out[i] = s.ctx
	}
	return out, true
}

// FactorJoin returns the loaded join model, or nil.
func (e *InferenceEngine) FactorJoin() *factorjoin.Model {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.disabled["factorjoin"] {
		return nil
	}
	return e.fj
}

// RBX returns the loaded NDV model, or nil.
func (e *InferenceEngine) RBX() *rbx.Model {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.disabled["rbx"] {
		return nil
	}
	return e.rbxModel
}

// RBXUsable reports whether RBX may serve the given column (the monitor
// disables individual problem columns until calibration lands).
func (e *InferenceEngine) RBXUsable(column string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return !e.disabled["rbx"] && !e.disabled["rbx:"+column]
}

// disableKey marks a model key unusable; estimation falls back to the
// traditional estimator (the Model Monitor's guardrail). Keys: "bn:<table>",
// "factorjoin", "rbx", "rbx:<table.column>". Callers outside core use
// Admin().Disable.
func (e *InferenceEngine) disableKey(key string) {
	e.mu.Lock()
	e.disabled[key] = true
	e.mu.Unlock()
	// Availability changed: cached estimates may embed the now-unusable
	// model's answers. Flushed outside e.mu.
	e.FlushCaches()
}

// enableKey re-enables a previously disabled key. The key's circuit
// breaker is reset too: a model the Monitor revalidated starts with a clean
// slate. Callers outside core use Admin().Enable.
func (e *InferenceEngine) enableKey(key string) {
	e.mu.Lock()
	delete(e.disabled, key)
	if b := e.breakers[key]; b != nil {
		b.reset()
	}
	e.mu.Unlock()
	// Availability changed: fallback-derived cached estimates are stale
	// now that the model serves again. Flushed outside e.mu.
	e.FlushCaches()
}

// Allow reports whether a model key may serve an inference right now —
// false when the Monitor disabled it or its circuit breaker is open (an
// open breaker past its cooldown transitions to half-open and admits the
// probe). This is the admission rung of the degradation ladder; callers
// must follow up with RecordSuccess or RecordFailure.
func (e *InferenceEngine) Allow(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.disabled[key] {
		return false
	}
	b := e.breakers[key]
	if b == nil {
		return true
	}
	return b.allow(e.now())
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	if b := e.breakers[key]; b != nil {
		return b.state
	}
	return BreakerClosed
}

// keyDisabled reports whether a key is disabled.
func (e *InferenceEngine) keyDisabled(key string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.disabled[key]
}

// keyTimestamp returns the installed version time of a model key
// ("bn:<table>", "factorjoin", "rbx"); zero when absent.
func (e *InferenceEngine) keyTimestamp(key string) time.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	switch key {
	case "factorjoin":
		return e.fjStamp
	case "rbx":
		return e.rbxStamp
	}
	shards, _ := e.tables.Peek(strings.TrimPrefix(key, "bn:"))
	var latest time.Time
	for _, s := range shards {
		if s.timestamp.After(latest) {
			latest = s.timestamp
		}
	}
	return latest
}

// Stats summarizes the registry for observability, including the full
// degradation-ladder state: Monitor-disabled keys and circuit breakers.
type Stats struct {
	Tables    int
	TotalSize int64
	Loads     int64
	Rejects   int64
	Evictions int64
	HasFJ     bool
	HasRBX    bool
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := Stats{
		Tables:    e.tables.Len(),
		Loads:     e.loads,
		Rejects:   e.rejects,
		Evictions: e.tables.Stats().Evictions,
		HasFJ:     e.fj != nil,
		HasRBX:    e.rbxModel != nil,
	}
	// The artifact sizes, not the cache's charge, which an oversized table
	// caps at the bound.
	e.tables.Range(func(_ string, shards []*bnEntry) {
		for _, sh := range shards {
			s.TotalSize += sh.size
		}
	})
	for key := range e.disabled {
		s.Disabled = append(s.Disabled, key)
	}
	sort.Strings(s.Disabled)
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
