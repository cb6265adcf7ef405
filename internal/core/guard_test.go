package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

type testHook struct {
	before    func(key string)
	transform func(key string, v float64) float64
}

func (h testHook) Before(key string) {
	if h.before != nil {
		h.before(key)
	}
}

func (h testHook) Transform(key string, v float64) float64 {
	if h.transform != nil {
		return h.transform(key, v)
	}
	return v
}

func TestGuardRecoversPanic(t *testing.T) {
	g := NewGuard(GuardConfig{})
	_, err := g.Do("bn:t", func() (float64, error) { panic("model exploded") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if g.Stats().Panics != 1 {
		t.Errorf("panics = %d", g.Stats().Panics)
	}
	// The guard keeps working after a panic.
	v, err := g.Do("bn:t", func() (float64, error) { return 0.5, nil })
	if err != nil || v != 0.5 {
		t.Errorf("post-panic call = %v, %v", v, err)
	}
}

func TestGuardHookPanicRecovered(t *testing.T) {
	g := NewGuard(GuardConfig{})
	g.SetHook(testHook{before: func(string) { panic("injected") }})
	if _, err := g.Do("rbx", func() (float64, error) { return 1, nil }); err == nil {
		t.Fatal("hook panic must surface as error")
	}
	g.SetHook(nil)
	if _, err := g.Do("rbx", func() (float64, error) { return 1, nil }); err != nil {
		t.Fatalf("after hook removal: %v", err)
	}
}

func TestGuardHookTransform(t *testing.T) {
	g := NewGuard(GuardConfig{})
	g.SetHook(testHook{transform: func(_ string, v float64) float64 { return v * 10 }})
	v, err := g.Do("factorjoin", func() (float64, error) { return 4, nil })
	if err != nil || v != 40 {
		t.Errorf("transformed = %v, %v", v, err)
	}
}

func TestGuardLatencyBudget(t *testing.T) {
	g := NewGuard(GuardConfig{LatencyBudget: 5 * time.Millisecond})
	_, err := g.Do("bn:t", func() (float64, error) {
		time.Sleep(100 * time.Millisecond)
		return 1, nil
	})
	if err == nil || !strings.Contains(err.Error(), "latency budget") {
		t.Fatalf("err = %v, want budget breach", err)
	}
	if g.Stats().Timeouts != 1 {
		t.Errorf("timeouts = %d", g.Stats().Timeouts)
	}
	// Fast calls pass untouched.
	v, err := g.Do("bn:t", func() (float64, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Errorf("fast call = %v, %v", v, err)
	}
}

func TestGuardDoPropagatesError(t *testing.T) {
	g := NewGuard(GuardConfig{})
	want := errors.New("no such column")
	if _, err := g.Do("bn:t", func() (float64, error) { return 0, want }); !errors.Is(err, want) {
		t.Errorf("err = %v", err)
	}
}

func TestSanitize(t *testing.T) {
	g := NewGuard(GuardConfig{})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		if _, err := g.Sanitize("bn:t", bad, 1, 100); err == nil {
			t.Errorf("Sanitize(%v) accepted", bad)
		}
	}
	if g.Stats().Invalid != 4 {
		t.Errorf("invalid = %d, want 4", g.Stats().Invalid)
	}
	if v, err := g.Sanitize("bn:t", 1e12, 1, 100); err != nil || v.Float() != 100 {
		t.Errorf("clamp high = %v, %v", v, err)
	}
	if v, err := g.Sanitize("bn:t", 0.2, 1, 100); err != nil || v.Float() != 1 {
		t.Errorf("clamp low = %v, %v", v, err)
	}
	if g.Stats().Clamped != 2 {
		t.Errorf("clamped = %d, want 2", g.Stats().Clamped)
	}
	if v, err := g.Sanitize("bn:t", 42, 1, 100); err != nil || v.Float() != 42 {
		t.Errorf("in-range = %v, %v", v, err)
	}
}
