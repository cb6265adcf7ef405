// Package loader implements the Model Loader: a background task (a peer of
// compaction under the warehouse's Daemon Manager) that ships artifacts
// from the model store into the Inference Engine on a timestamp basis —
// only strictly newer versions are installed — and maintains the in-memory
// per-table sample frames RBX featurization reads.
package loader

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bytecard/internal/core"
	"bytecard/internal/modelstore"
	"bytecard/internal/sample"
	"bytecard/internal/storage"
)

// DefaultInterval is the paper's default refresh cadence.
const DefaultInterval = time.Hour

// DefaultSampleRows caps the per-table RBX sample frame (the paper loads
// under 10 million rows per table; bench scale needs far less).
const DefaultSampleRows = 20000

// DefaultBackoffBase is the first retry delay after a failed refresh.
const DefaultBackoffBase = time.Second

// Loader periodically refreshes the Inference Engine from the store.
type Loader struct {
	Store  *modelstore.Store
	Engine *core.InferenceEngine
	// Interval between successful refreshes (default one hour).
	Interval time.Duration
	// BackoffBase is the retry delay after the first failed refresh; it
	// doubles per consecutive failure (default one second).
	BackoffBase time.Duration
	// BackoffMax caps the retry delay (default: the refresh interval).
	BackoffMax time.Duration

	// mu guards everything below: RefreshOnce may be called directly
	// (System.RefreshModels) while the background Run loop is refreshing.
	mu          sync.Mutex
	installed   map[string]time.Time
	lastErr     error
	lastSuccess time.Time
	failures    int
}

// Health reports the loader's operational state.
type Health struct {
	// LastSuccess is when a refresh last completed without error (zero if
	// never).
	LastSuccess time.Time
	// ConsecutiveFailures counts refreshes that errored since the last
	// success.
	ConsecutiveFailures int
	// LastError is the most recent refresh failure (nil after a clean
	// refresh).
	LastError error
}

// New creates a loader.
func New(store *modelstore.Store, engine *core.InferenceEngine) *Loader {
	return &Loader{
		Store:     store,
		Engine:    engine,
		Interval:  DefaultInterval,
		installed: map[string]time.Time{},
	}
}

// RefreshOnce installs every artifact whose timestamp is newer than the
// installed version, returning how many models were (re)loaded. Invalid
// artifacts are skipped (and reported) rather than aborting the sweep —
// one bad model must not block the rest. Artifacts of a retired kind are
// skipped silently. Safe to call concurrently with the background Run loop.
func (l *Loader) RefreshOnce() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	manifests, err := l.Store.List()
	if err != nil {
		l.recordLocked(err)
		return 0, err
	}
	loaded := 0
	var firstErr error
	for _, m := range manifests {
		if m.Kind.Retired() {
			continue
		}
		prev, ok := l.installed[m.Name]
		if ok && !m.Timestamp.After(prev) {
			continue
		}
		art, err := l.Store.Get(m.Name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := l.Engine.LoadModel(art); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("loader: %s: %w", m.Name, err)
			}
			continue
		}
		l.installed[m.Name] = m.Timestamp
		loaded++
	}
	l.recordLocked(firstErr)
	return loaded, firstErr
}

func (l *Loader) recordLocked(err error) {
	l.lastErr = err
	if err != nil {
		l.failures++
		return
	}
	l.failures = 0
	l.lastSuccess = time.Now()
}

// Health returns the loader's current operational state.
func (l *Loader) Health() Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Health{
		LastSuccess:         l.lastSuccess,
		ConsecutiveFailures: l.failures,
		LastError:           l.lastErr,
	}
}

// HealthSnapshot is the serializable form of Health (errors rendered as
// strings) used by System.Metrics.
type HealthSnapshot struct {
	LastSuccess         time.Time `json:"last_success"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	LastError           string    `json:"last_error,omitempty"`
	Installed           int       `json:"installed"`
	// Store surfaces the model store's crash-safety state: quarantined
	// generations, detected corruption, and any artifact currently served
	// from a last-known-good fallback.
	Store modelstore.HealthSnapshot `json:"store"`
}

// Snapshot returns the loader's serializable operational state, including
// how many artifact names are currently installed and the backing store's
// corruption/fallback health.
func (l *Loader) Snapshot() HealthSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := HealthSnapshot{
		LastSuccess:         l.lastSuccess,
		ConsecutiveFailures: l.failures,
		Installed:           len(l.installed),
		Store:               l.Store.Health(),
	}
	if l.lastErr != nil {
		s.LastError = l.lastErr.Error()
	}
	return s
}

// nextDelay picks the wait before the next refresh: the configured
// interval after a success, exponential backoff (base doubling per
// consecutive failure, capped) after a failure so a broken store is
// retried promptly once it heals without being hammered.
func (l *Loader) nextDelay(interval time.Duration, failed bool) time.Duration {
	if !failed {
		return interval
	}
	base := l.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := l.BackoffMax
	if cap <= 0 || cap > interval {
		cap = interval
	}
	n := l.Health().ConsecutiveFailures
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= cap {
			break
		}
	}
	if d > cap {
		d = cap
	}
	return d
}

// Run refreshes on the configured interval until the context is cancelled,
// retrying failed refreshes with capped exponential backoff instead of
// waiting out the full interval.
func (l *Loader) Run(ctx context.Context) {
	interval := l.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	l.run(ctx, interval)
}

// run is Run with an explicit first delay (tests start mid-backoff).
func (l *Loader) run(ctx context.Context, first time.Duration) {
	interval := l.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	timer := time.NewTimer(first)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			_, err := l.RefreshOnce()
			timer.Reset(l.nextDelay(interval, err != nil))
		}
	}
}

// LoadSamples draws the per-table sample frames the ByteCard estimator's
// RBX featurization needs and installs them on the estimator.
func LoadSamples(db *storage.Database, est *core.Estimator, maxRows int, seed int64) {
	if maxRows <= 0 {
		maxRows = DefaultSampleRows
	}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		est.Samples[name] = sample.SampleTable(t, maxRows, seed^int64(t.NumRows()))
	}
}
