package residual

import (
	"bytes"
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCorrectNeedsMinObservations(t *testing.T) {
	c := New(Config{}, nil)
	tables := []string{"fact"}

	// No bucket: estimate passes through untouched.
	if v, f := c.Correct("tmpl", 100); v != 100 || f != 1 {
		t.Fatalf("empty corrector: Correct = (%g, %g), want (100, 1)", v, f)
	}

	// One observation is below the floor; the correction stays off.
	c.Observe("tmpl", tables, 100, 400)
	if v, f := c.Correct("tmpl", 100); v != 100 || f != 1 {
		t.Fatalf("after 1 obs: Correct = (%g, %g), want (100, 1)", v, f)
	}

	// The second observation crosses DefaultMinObservations and the full
	// residual (x4, learned from consistent truth) applies.
	c.Observe("tmpl", tables, 100, 400)
	v, f := c.Correct("tmpl", 100)
	if !almost(f, 4) || !almost(v, 400) {
		t.Fatalf("after 2 obs: Correct = (%g, %g), want (400, 4)", v, f)
	}
}

// TestFeedbackLoopConvergesToFullResidual is the reconstruction-math test:
// when the corrector's own output feeds back into Observe (as it does in
// the engine loop), the learned factor must converge to the full residual,
// not the half-residual a naive EWMA over corrected estimates reaches.
func TestFeedbackLoopConvergesToFullResidual(t *testing.T) {
	c := New(Config{}, nil)
	tables := []string{"fact"}
	const raw, truth = 100.0, 800.0
	for i := 0; i < 40; i++ {
		est, _ := c.Correct("tmpl", raw)
		c.Observe("tmpl", tables, est, truth)
	}
	_, f := c.Correct("tmpl", raw)
	if math.Abs(f-truth/raw) > 0.01 {
		t.Fatalf("converged factor %g, want %g (full residual)", f, truth/raw)
	}
}

func TestMaxFactorClamp(t *testing.T) {
	c := New(Config{MaxFactor: 8}, nil)
	tables := []string{"fact"}
	for i := 0; i < 20; i++ {
		// A x1000 residual, far beyond the clamp.
		c.Observe("tmpl", tables, 10, 10000)
	}
	_, f := c.Correct("tmpl", 10)
	if !almost(f, 8) {
		t.Fatalf("factor %g, want clamped to 8", f)
	}
	for i := 0; i < 20; i++ {
		c.Observe("down", tables, 10000, 10)
	}
	_, f = c.Correct("down", 10000)
	if !almost(f, 1.0/8) {
		t.Fatalf("factor %g, want clamped to 1/8", f)
	}
}

func TestMagnitudeBucketsAreIndependent(t *testing.T) {
	c := New(Config{}, nil)
	tables := []string{"fact"}
	// Same template, estimates two magnitude decades apart: residuals must
	// not bleed across cells.
	for i := 0; i < 10; i++ {
		c.Observe("tmpl", tables, 100, 400) // small estimates run x4 low
		c.Observe("tmpl", tables, 100000, 50000)
	}
	if _, f := c.Correct("tmpl", 100); math.Abs(f-4) > 0.01 {
		t.Errorf("small-magnitude factor %g, want ~4", f)
	}
	if _, f := c.Correct("tmpl", 100000); math.Abs(f-0.5) > 0.01 {
		t.Errorf("large-magnitude factor %g, want ~0.5", f)
	}
}

func TestDegenerateInputs(t *testing.T) {
	c := New(Config{}, nil)
	for _, est := range []float64{0, -5, math.Inf(1), math.NaN()} {
		if v, f := c.Correct("tmpl", est); f != 1 || (v != est && !math.IsNaN(est)) {
			t.Errorf("Correct(%g) = (%g, %g), want passthrough", est, v, f)
		}
	}
	// Unusable truth or estimate must not create buckets.
	c.Observe("tmpl", nil, 100, 0.5)
	c.Observe("tmpl", nil, 0, 100)
	c.Observe("tmpl", nil, math.Inf(1), 100)
	if c.Len() != 0 {
		t.Fatalf("degenerate observations created %d buckets", c.Len())
	}
}

// TestMaxEntriesBoundsBuckets checks Config.MaxEntries is the bucket
// table's bound and that an evicted bucket's learned state is gone. (LRU
// mechanics are covered by internal/lru's suite.)
func TestMaxEntriesBoundsBuckets(t *testing.T) {
	c := New(Config{MaxEntries: 4}, nil)
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range keys {
		c.Observe(k, []string{k}, 100, 200)
	}
	if c.Len() != 4 {
		t.Fatalf("resident buckets %d, want 4", c.Len())
	}
	// The oldest templates are the evicted ones.
	c.Observe("a", []string{"a"}, 100, 200) // recreates a fresh bucket with n=1
	if _, f := c.Correct("a", 100); f != 1 {
		t.Errorf("evicted bucket kept its confidence (factor %g)", f)
	}
}

func TestRefitHalvesConfidence(t *testing.T) {
	c := New(Config{}, nil)
	c.Observe("tmpl", []string{"fact"}, 100, 400)
	c.Observe("tmpl", []string{"fact"}, 100, 400)
	c.Observe("tmpl", []string{"fact"}, 100, 400)
	if n := c.Refit(); n != 1 {
		t.Fatalf("Refit reported %d buckets, want 1", n)
	}
	// n dropped 3 -> 1: below MinObservations again, correction withheld
	// until fresh truth re-confirms it.
	if _, f := c.Correct("tmpl", 100); f != 1 {
		t.Errorf("factor %g right after refit, want 1 (confidence halved)", f)
	}
	c.Observe("tmpl", []string{"fact"}, 100, 400)
	if _, f := c.Correct("tmpl", 100); almost(f, 1) {
		t.Error("one post-refit observation should restore the correction")
	}
}

func TestDriftSignal(t *testing.T) {
	c := New(Config{DriftMinObservations: 8}, nil)
	// Accurate regime: estimates match truth, no drift.
	for i := 0; i < 20; i++ {
		c.Observe("good", []string{"t"}, 1000, 1000)
	}
	if c.Drifted() {
		t.Fatal("accurate workload reported drift")
	}
	// Distribution shift: recent error explodes past the slow baseline.
	for i := 0; i < 10; i++ {
		c.Observe("bad", []string{"t"}, 1000, 64000)
	}
	if !c.Drifted() {
		t.Fatal("sustained 64x misestimates did not trip the drift signal")
	}
	c.Refit()
	if c.Drifted() {
		t.Fatal("Refit did not reset the drift tracker")
	}
}

func TestFlushAndInvalidateTables(t *testing.T) {
	c := New(Config{}, nil)
	c.Observe("t1", []string{"fact"}, 100, 200)
	c.Observe("t2", []string{"dim", "fact"}, 100, 200)
	c.Observe("t3", []string{"other"}, 100, 200)

	if n := c.InvalidateTables("fact"); n != 2 {
		t.Fatalf("InvalidateTables dropped %d buckets, want 2", n)
	}
	if c.Len() != 1 {
		t.Fatalf("resident %d, want 1 (the fact-free template)", c.Len())
	}
	if n := c.Flush(); n != 1 {
		t.Fatalf("Flush dropped %d, want 1", n)
	}
	if c.Len() != 0 {
		t.Fatalf("flush left %d buckets", c.Len())
	}
}

// TestObserveDoesNotCountLookups pins the "residual" cache counters to
// Correct's lookups: Observe's read-modify-write of a bucket is neither a
// hit nor a miss.
func TestObserveDoesNotCountLookups(t *testing.T) {
	c := New(Config{}, nil)
	c.Correct("tmpl", 100) // miss
	c.Observe("tmpl", []string{"fact"}, 100, 400)
	c.Observe("tmpl", []string{"fact"}, 100, 400)
	c.Correct("tmpl", 100) // hit
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want 1 hit, 1 miss, 1 entry", s)
	}
}

func TestEncodeDeterministicAcrossInsertionOrder(t *testing.T) {
	mk := func(order []string) *Corrector {
		c := New(Config{}, nil)
		for _, k := range order {
			c.Observe(k, []string{k}, 100, 300)
			c.Observe(k, []string{k}, 100, 300)
		}
		return c
	}
	a := mk([]string{"x", "y", "z"})
	b := mk([]string{"z", "x", "y"})
	// Touch a's LRU order too: access order must not leak into bytes.
	a.Correct("y", 100)
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("encodings differ across insertion/access order")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	c := New(Config{}, nil)
	for i := 0; i < 3; i++ {
		c.Observe("t1", []string{"fact"}, 100, 400)
		c.Observe("t2", []string{"dim", "fact"}, 5000, 2500)
	}
	enc := c.Encode()

	d := New(Config{}, nil)
	d.Observe("stale", []string{"old"}, 10, 20) // must be replaced
	if err := d.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("decoded %d buckets, want 2", d.Len())
	}
	if _, f := d.Correct("stale", 10); f != 1 {
		t.Error("Decode kept a pre-existing bucket")
	}
	for _, k := range []string{"t1", "t2"} {
		ev, ef := c.Correct(k, map[string]float64{"t1": 100, "t2": 5000}[k])
		gv, gf := d.Correct(k, map[string]float64{"t1": 100, "t2": 5000}[k])
		if !almost(ev, gv) || !almost(ef, gf) {
			t.Errorf("%s: decoded corrector answers (%g, %g), original (%g, %g)", k, gv, gf, ev, ef)
		}
	}
	if !bytes.Equal(enc, d.Encode()) {
		t.Fatal("re-encoding after decode is not byte-identical")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	c := New(Config{}, nil)
	c.Observe("t1", []string{"fact"}, 100, 400)
	enc := c.Encode()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("XXXX\x01\x00"),
		"bad version": append([]byte("BCRS"), 99),
		"truncated":   enc[:len(enc)-3],
		"trailing":    append(append([]byte(nil), enc...), 0xFF),
	}
	for name, data := range cases {
		d := New(Config{}, nil)
		if err := d.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestMagBucket(t *testing.T) {
	cases := map[float64]int{
		0.5:            0,
		1:              0,
		2:              1,
		1000:           9,
		math.Inf(1):    0,
		1e300:          62, // capped
		math.NaN():     0,
		-5:             0,
		(1 << 40):      40,
		(1 << 40) + 10: 40,
	}
	for est, want := range cases {
		if got := magBucket(est); got != want {
			t.Errorf("magBucket(%g) = %d, want %d", est, got, want)
		}
	}
}
