package core

import (
	"testing"
	"time"
)

func TestBreakerConsecutiveOpensAndRecovers(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, HalfOpenProbes: 2})
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		b.recordFailure(now)
		if b.state != BreakerClosed {
			t.Fatalf("state after %d failures = %s", i+1, b.state)
		}
	}
	b.recordFailure(now)
	if b.state != BreakerOpen || b.trips != 1 {
		t.Fatalf("state = %s trips = %d, want open/1", b.state, b.trips)
	}
	if b.allow(now.Add(30 * time.Second)) {
		t.Error("open breaker admitted a call inside the cooldown")
	}
	// Past the cooldown the breaker goes half-open and admits probes.
	if !b.allow(now.Add(2 * time.Minute)) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.state)
	}
	b.recordSuccess()
	if b.state != BreakerHalfOpen {
		t.Fatalf("one probe of two closed the breaker")
	}
	b.recordSuccess()
	if b.state != BreakerClosed {
		t.Fatalf("state = %s after enough probes, want closed", b.state)
	}
	if b.consecutive != 0 {
		t.Errorf("closed breaker kept %d consecutive failures", b.consecutive)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute})
	now := time.Unix(1000, 0)
	b.recordFailure(now)
	if !b.allow(now.Add(2 * time.Minute)) {
		t.Fatal("probe refused")
	}
	b.recordFailure(now.Add(2 * time.Minute))
	if b.state != BreakerOpen || b.trips != 2 {
		t.Fatalf("state = %s trips = %d, want reopened/2", b.state, b.trips)
	}
	// The second cooldown starts from the reopen.
	if b.allow(now.Add(2*time.Minute + 30*time.Second)) {
		t.Error("reopened breaker admitted a call too early")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 3})
	now := time.Unix(1000, 0)
	b.recordFailure(now)
	b.recordFailure(now)
	b.recordSuccess()
	b.recordFailure(now)
	b.recordFailure(now)
	if b.state != BreakerClosed {
		t.Fatal("interleaved successes must keep the breaker closed")
	}
}

func TestBreakerRateTrip(t *testing.T) {
	b := newBreaker(BreakerConfig{
		FailureThreshold: -1, // consecutive tripping off
		FailureRate:      0.5,
		Window:           10,
		Cooldown:         time.Minute,
	})
	now := time.Unix(1000, 0)
	// Alternate success/failure: 50% failure rate over a full window (the
	// rate check runs when a failure lands, so failures go on odd slots).
	for i := 0; i < 10 && b.state == BreakerClosed; i++ {
		if i%2 == 1 {
			b.recordFailure(now)
		} else {
			b.recordSuccess()
		}
	}
	if b.state != BreakerOpen {
		t.Fatalf("state = %s, want rate-tripped open", b.state)
	}
}

func TestBreakerRateNeedsFullWindow(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: -1, FailureRate: 0.5, Window: 10})
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		b.recordFailure(now)
	}
	if b.state != BreakerClosed {
		t.Error("rate tripping must wait for a full window")
	}
}

func TestEngineBreakerIntegration(t *testing.T) {
	e := NewInferenceEngine(Options{Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, HalfOpenProbes: 1}})
	now := time.Unix(5000, 0)
	e.SetClock(func() time.Time { return now })

	if !e.Allow("bn:orders") {
		t.Fatal("fresh key must be allowed")
	}
	e.RecordFailure("bn:orders")
	e.RecordFailure("bn:orders")
	if e.Allow("bn:orders") {
		t.Fatal("tripped key must be blocked")
	}
	if st := e.breakerState("bn:orders"); st != BreakerOpen {
		t.Fatalf("state = %s", st)
	}
	snap := e.Snapshot()
	if snap.BreakerTrips != 1 || len(snap.Breakers) != 1 || snap.Breakers[0].Key != "bn:orders" {
		t.Errorf("snapshot = %+v", snap.Breakers)
	}

	// Cooldown elapses: one probe admitted, success closes.
	now = now.Add(2 * time.Minute)
	if !e.Allow("bn:orders") {
		t.Fatal("cooled key must admit a probe")
	}
	e.RecordSuccess("bn:orders")
	if st := e.breakerState("bn:orders"); st != BreakerClosed {
		t.Fatalf("state = %s after probe success", st)
	}

	// Monitor disable blocks regardless of breaker state; Enable resets
	// both rungs.
	e.RecordFailure("bn:orders")
	e.RecordFailure("bn:orders")
	e.disableKey("bn:orders")
	now = now.Add(time.Hour)
	if e.Allow("bn:orders") {
		t.Fatal("disabled key must be blocked past any cooldown")
	}
	e.enableKey("bn:orders")
	if !e.Allow("bn:orders") {
		t.Fatal("enabled key must be allowed")
	}
	if st := e.breakerState("bn:orders"); st != BreakerClosed {
		t.Errorf("Enable must reset the breaker, state = %s", st)
	}
	if ds := e.Snapshot().Disabled; len(ds) != 0 {
		t.Errorf("disabled keys = %v", ds)
	}
}

func TestSnapshotListsDisabled(t *testing.T) {
	e := NewInferenceEngine(Options{})
	e.disableKey("rbx")
	e.disableKey("bn:fact")
	snap := e.Snapshot()
	if len(snap.Disabled) != 2 || snap.Disabled[0] != "bn:fact" || snap.Disabled[1] != "rbx" {
		t.Errorf("disabled = %v", snap.Disabled)
	}
}
