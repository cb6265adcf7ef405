package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bytecard/internal/estimate"
	"bytecard/internal/obs"
)

// ModelError is a classified model-call failure: every error on the
// guarded estimation path carries the model key it concerns and the
// obs.Outcome* verdict that produced it, so traces and metrics can
// attribute failures without string matching.
type ModelError struct {
	// Key is the model key ("bn:<table>", "factorjoin", "rbx").
	Key string
	// Outcome is the obs outcome constant classifying the failure.
	Outcome string
	// Msg is the rendered failure message.
	Msg string
}

// Error implements error.
func (e *ModelError) Error() string { return e.Msg }

// OutcomeOf classifies any error from the guarded estimation path,
// returning obs.OutcomeError for untyped errors.
func OutcomeOf(err error) string {
	var me *ModelError
	if errors.As(err, &me) {
		return me.Outcome
	}
	return obs.OutcomeError
}

// FaultHook intercepts guarded model calls. The faultinject package
// implements it to inject panics, delays, and corrupt outputs for chaos
// testing; production runs leave it nil. Before runs inside the guard's
// recovery scope just ahead of the model call (it may panic or sleep);
// Transform rewrites the model's raw output (it may return NaN).
type FaultHook interface {
	Before(key string)
	Transform(key string, v float64) float64
}

// GuardConfig tunes the inference guard.
type GuardConfig struct {
	// LatencyBudget bounds one guarded model call; a call that exceeds it
	// is abandoned (it finishes on a background goroutine) and reported
	// as a failure so estimation falls back. 0 disables the budget —
	// planning then never pays the goroutine handoff on the hot path.
	LatencyBudget time.Duration
}

// maxWatchers caps a guard's outstanding watchers: the goroutines running
// budgeted calls, abandoned ones included, until their calls return. A
// model that stalls for good strands one watcher per call; at the cap a
// call fails as a timeout at once, without spawning, and the breaker and
// fallback estimator answer as they do for any timeout.
const maxWatchers = 64

// Guard wraps every learned-model call (BN selectivity, FactorJoin, RBX)
// with the protections the deployment contract requires: a
// panicking model must not crash the query goroutine, a stalled model must
// not stall planning past the latency budget, and a NaN/Inf/negative or
// absurdly large estimate must never reach the optimizer. Each protection
// converts the failure into an error the estimator turns into a sketch
// fallback, counted per failure class.
type Guard struct {
	cfg GuardConfig

	mu   sync.RWMutex
	hook FaultHook

	panics   atomic.Int64
	timeouts atomic.Int64
	invalid  atomic.Int64
	clamped  atomic.Int64
	// watchers counts outstanding watchers (see maxWatchers).
	watchers atomic.Int64
}

// NewGuard creates a guard.
func NewGuard(cfg GuardConfig) *Guard { return &Guard{cfg: cfg} }

// SetHook installs (or, with nil, removes) a fault-injection hook.
func (g *Guard) SetHook(h FaultHook) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = h
}

func (g *Guard) currentHook() FaultHook {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.hook
}

// GuardStats counts guard interventions by failure class.
type GuardStats struct {
	// Panics is how many model calls panicked and were recovered.
	Panics int64
	// Timeouts is how many calls exceeded the latency budget.
	Timeouts int64
	// Invalid is how many estimates were rejected as NaN/Inf/negative.
	Invalid int64
	// Clamped is how many finite estimates were pulled into bounds.
	Clamped int64
}

// Stats returns the intervention counters.
func (g *Guard) Stats() GuardStats {
	return GuardStats{
		Panics:   g.panics.Load(),
		Timeouts: g.timeouts.Load(),
		Invalid:  g.invalid.Load(),
		Clamped:  g.clamped.Load(),
	}
}

// Do runs one model call under panic recovery and the latency budget,
// applying the fault hook around it. The returned error classifies the
// failure; the value is unsanitized (callers follow with Sanitize).
func (g *Guard) Do(key string, fn func() (float64, error)) (float64, error) {
	run := func() (v float64, err error) {
		defer func() {
			if r := recover(); r != nil {
				g.panics.Add(1)
				err = &ModelError{Key: key, Outcome: obs.OutcomePanic, Msg: fmt.Sprintf("core: model %s panicked: %v", key, r)}
			}
		}()
		hook := g.currentHook()
		if hook != nil {
			hook.Before(key)
		}
		v, err = fn()
		if err == nil && hook != nil {
			v = hook.Transform(key, v)
		}
		return v, err
	}
	if g.cfg.LatencyBudget <= 0 {
		return run()
	}
	if g.watchers.Add(1) > maxWatchers {
		g.watchers.Add(-1)
		g.timeouts.Add(1)
		return 0, &ModelError{Key: key, Outcome: obs.OutcomeTimeout, Msg: fmt.Sprintf("core: model %s not called: %d guarded calls still running", key, maxWatchers)}
	}
	type result struct {
		v   float64
		err error
	}
	ch := make(chan result, 1)
	go func() { //bytecard:goroutine-ok latency-budget watcher must outlive the abandoned call; a pooled job would block the pool slot
		defer g.watchers.Add(-1)
		v, err := run()
		ch <- result{v, err}
	}()
	timer := time.NewTimer(g.cfg.LatencyBudget)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		g.timeouts.Add(1)
		return 0, &ModelError{Key: key, Outcome: obs.OutcomeTimeout, Msg: fmt.Sprintf("core: model %s exceeded latency budget %v", key, g.cfg.LatencyBudget)}
	}
}

// Sanitize validates a model estimate before it reaches the optimizer:
// NaN, ±Inf, and negative values are rejected (the model is lying, not
// merely imprecise), while finite out-of-range values are clamped into
// [lo, hi] — a cardinality can never exceed the relation's row count nor
// drop below one row.
func (g *Guard) Sanitize(key string, v, lo, hi float64) (estimate.Value, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		g.invalid.Add(1)
		return estimate.Value{}, &ModelError{Key: key, Outcome: obs.OutcomeInvalid, Msg: fmt.Sprintf("core: model %s produced invalid estimate %v", key, v)}
	}
	if v < lo || v > hi {
		g.clamped.Add(1)
	}
	return estimate.Clamp(v, lo, hi), nil
}
