package core

import (
	"time"

	"bytecard/internal/obs"
)

// ModelAdmin is the administrative view of the Inference Engine's
// per-model-key state: the one surface operational tooling — the Model
// Monitor, the CLI, tests — uses to disable, enable and inspect a key
// instead of reaching into the registry.
//
// Model keys follow the registry convention: "bn:<table>" for single-table
// Bayesian networks, "factorjoin" for the join model, "rbx" for the NDV
// model, and "rbx:<table.column>" for per-column RBX calibration state.
type ModelAdmin struct {
	e *InferenceEngine
}

// Admin returns the administrative view of the registry.
func (e *InferenceEngine) Admin() ModelAdmin { return ModelAdmin{e: e} }

// ModelState is one key's full degradation-ladder state.
type ModelState struct {
	// Key is the model key queried.
	Key string `json:"key"`
	// Disabled reports a Model Monitor (or operator) disable.
	Disabled bool `json:"disabled"`
	// Breaker is the circuit-breaker state: BreakerClosed, BreakerOpen, or
	// BreakerHalfOpen.
	Breaker string `json:"breaker"`
	// Timestamp is the installed artifact version time (zero when no
	// artifact is loaded for the key).
	Timestamp time.Time `json:"timestamp"`
}

// State reports a key's current availability in one call.
func (a ModelAdmin) State(key string) ModelState {
	return ModelState{
		Key:       key,
		Disabled:  a.e.keyDisabled(key),
		Breaker:   a.e.breakerState(key),
		Timestamp: a.e.keyTimestamp(key),
	}
}

// Disable marks a model key unusable; estimation falls back to the
// traditional estimator (the Model Monitor's guardrail).
func (a ModelAdmin) Disable(key string) { a.e.disableKey(key) }

// Enable re-enables a previously disabled key and resets its circuit
// breaker: a model the Monitor revalidated starts with a clean slate.
func (a ModelAdmin) Enable(key string) { a.e.enableKey(key) }

// CacheStats snapshots every registered derived cache's counters by name
// ("joinvec" for the estimator's join-vector/subset cache, "plan" for the
// engine's plan cache when one is wired).
func (a ModelAdmin) CacheStats() map[string]obs.CacheSnapshot { return a.e.CacheStats() }

// FlushCaches drops every entry of every registered derived cache,
// returning the total dropped — the operator escape hatch when cached
// plans or estimates are suspected stale.
func (a ModelAdmin) FlushCaches() int { return a.e.FlushCaches() }

// Usable reports whether the key may serve an inference right now —
// false when disabled or its breaker is open. Unlike Allow on the raw
// registry, Usable does not admit half-open probes and has no accounting
// side effects; it is a pure read for dashboards and tests.
func (a ModelAdmin) Usable(key string) bool {
	s := a.State(key)
	return !s.Disabled && s.Breaker != BreakerOpen
}
