// Package residual closes ByteCard's feedback loop: a lightweight
// multiplicative corrector learned online from (estimate, executed truth)
// pairs, applied on top of BN/FactorJoin estimates (TiCard-style).
//
// The corrector is a table of log-space ratio buckets keyed by (query
// template, raw-estimate magnitude): each bucket holds an EWMA of
// log(truth/raw_estimate) over the executed queries that landed in it.
// Correcting an estimate multiplies it by e^EWMA once the bucket has seen
// enough observations; observing a truth tuple updates the bucket the raw
// (pre-correction) estimate fell into. Because corrected estimates feed
// back into the observations, Observe reconstructs the raw estimate from
// the correction last applied to the template — a plain EWMA over
// corrected estimates would converge to only half the residual (fixed
// point at t/2), while the reconstruction converges to the full one.
//
// Everything in here is derived from executed-query state paired with the
// *currently loaded* models, so the corrector implements core's
// DerivedCache contract and registers with the inference registry: a model
// load, retrain, disable, or enable resets the affected buckets instead of
// letting stale corrections ride on top of fresh models.
//
// The corrector is deterministic: no clocks, no randomness, and a
// byte-deterministic serialization (key-sorted, fixed-width encoding).
package residual

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"bytecard/internal/lru"
	"bytecard/internal/obs"
)

// Default tuning knobs (see Config).
const (
	DefaultAlpha                = 0.25
	DefaultMinObservations      = 2
	DefaultMaxFactor            = 32
	DefaultMaxEntries           = 4096
	DefaultDriftMinObservations = 32
	DefaultDriftRatio           = 2.0
)

// bucketOverhead approximates the fixed per-bucket footprint (map cell,
// LRU element, bucket header) for the byte gauge.
const bucketOverhead = 112

// lastAppLimit bounds the template -> last-applied-correction pairing map
// relative to MaxEntries; past it the map is cleared wholesale (losing
// pairing momentarily is harmless — see Observe).
const lastAppLimit = 4

// Config tunes a Corrector. The zero value selects every default.
type Config struct {
	// Alpha is the EWMA floor: young buckets learn at 1/(n+1) (i.e. a plain
	// running mean), mature buckets never adapt slower than Alpha per
	// observation.
	Alpha float64
	// MinObservations is how many truth tuples a bucket needs before its
	// correction is applied — one outlier must not steer the planner.
	MinObservations int64
	// MaxFactor clamps applied corrections to [1/MaxFactor, MaxFactor].
	MaxFactor float64
	// MaxEntries bounds resident buckets; the least recently touched
	// bucket is evicted past it.
	MaxEntries int
	// DriftMinObservations is how many tuples the drift tracker needs
	// after a reset before Drifted may report true.
	DriftMinObservations int64
	// DriftRatio is how many times worse the recent rolling q-error must
	// be than the baseline before Drifted reports true.
	DriftRatio float64
}

func (c Config) fill() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.MinObservations <= 0 {
		c.MinObservations = DefaultMinObservations
	}
	if c.MaxFactor <= 1 {
		c.MaxFactor = DefaultMaxFactor
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.DriftMinObservations <= 0 {
		c.DriftMinObservations = DefaultDriftMinObservations
	}
	if c.DriftRatio <= 1 {
		c.DriftRatio = DefaultDriftRatio
	}
	return c
}

// bucket is one (template, magnitude) cell of the corrector.
type bucket struct {
	key string
	// tables is the sorted physical-table list the template covers, for
	// table-scoped invalidation.
	tables []string
	// logRatio is the EWMA of log(truth / raw_estimate).
	logRatio float64
	// n counts absorbed observations (halved by Refit).
	n int64
}

// Corrector is the online residual model. Safe for concurrent use; all
// updates are deterministic given the observation order.
type Corrector struct {
	// mu guards bucket contents, the pairing map, and the drift tracker;
	// it is taken before the bucket table's own lock, never after.
	mu  sync.Mutex
	cfg Config
	// buckets is the LRU bucket table, bounded to cfg.MaxEntries.
	buckets *lru.Cache[string, *bucket]
	// lastApp maps a template key to the log correction last applied to
	// one of its estimates, letting Observe reconstruct the raw estimate.
	lastApp map[string]float64
	rm      *obs.ResidualMetrics

	// Rolling drift tracker over the post-correction absolute log q-error:
	// recent follows fast, baseline follows slowly; a sustained gap means
	// the loaded models (even corrected) no longer fit the data.
	recentErr, baselineErr float64
	driftObs               int64
}

// New creates a corrector. rm may be nil (a private block is allocated).
func New(cfg Config, rm *obs.ResidualMetrics) *Corrector {
	if rm == nil {
		rm = obs.NewResidualMetrics()
	}
	cfg = cfg.fill()
	return &Corrector{
		cfg:     cfg,
		buckets: lru.NewEntries[string, *bucket](cfg.MaxEntries),
		lastApp: map[string]float64{},
		rm:      rm,
	}
}

// Metrics returns the corrector's observability block.
func (c *Corrector) Metrics() *obs.ResidualMetrics { return c.rm }

// magBucket is the log2 magnitude cell a raw estimate falls into. Buckets
// partition [1, inf): estimates below one row share bucket 0.
func magBucket(est float64) int {
	if !(est > 1) || math.IsInf(est, 1) {
		return 0
	}
	mb := int(math.Log2(est))
	if mb > 62 {
		mb = 62
	}
	return mb
}

// bucketKey joins template identity and magnitude cell. NUL can't collide
// with template-key bytes meaningfully — the pair is parsed nowhere.
func bucketKey(key string, mb int) string {
	return fmt.Sprintf("%s\x00%d", key, mb)
}

// bucketSize approximates a bucket's resident footprint.
func bucketSize(key string, tables []string) int64 {
	size := int64(bucketOverhead) + int64(len(key))
	for _, t := range tables {
		size += int64(len(t)) + 16
	}
	return size
}

// Correct applies the learned correction for a template's estimate,
// returning the corrected value and the multiplicative factor used
// (1 when no confident bucket exists). The applied log-correction is
// remembered per template so a following Observe for the same template can
// reconstruct the raw estimate. est must be positive and finite; anything
// else is returned unchanged.
func (c *Corrector) Correct(key string, est float64) (float64, float64) {
	if !(est > 0) || math.IsInf(est, 0) {
		return est, 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	applied := 0.0
	if b, ok := c.buckets.Get(bucketKey(key, magBucket(est))); ok && b.n >= c.cfg.MinObservations {
		applied = b.logRatio
		if lim := math.Log(c.cfg.MaxFactor); applied > lim {
			applied = lim
		} else if applied < -lim {
			applied = -lim
		}
	}
	c.noteAppliedLocked(key, applied)
	if applied == 0 {
		c.rm.Skipped.Add(1)
		return est, 1
	}
	f := math.Exp(applied)
	c.rm.Applications.Add(1)
	c.rm.FactorMagnitude.Observe(math.Max(f, 1/f))
	return est * f, f
}

// noteAppliedLocked records the log correction last applied to a template
// (0 when none), clearing the pairing map wholesale past its bound.
func (c *Corrector) noteAppliedLocked(key string, applied float64) {
	if len(c.lastApp) >= lastAppLimit*c.cfg.MaxEntries {
		clear(c.lastApp)
	}
	c.lastApp[key] = applied
}

// Observe absorbs one executed truth tuple: est is the final estimate the
// plan carried (post-correction when the corrector was consulted), truth
// the exact executed cardinality, tables the sorted physical tables of the
// template. The raw estimate is reconstructed from the correction last
// applied to the template; when several queries of one template interleave
// between Correct and Observe the pairing can mismatch, but they share the
// same bucket and factor, so the reconstruction error is bounded by one
// EWMA step. Tuples without usable truth (truth < 1) or estimate are
// dropped.
func (c *Corrector) Observe(key string, tables []string, est float64, truth float64) {
	if truth < 1 || !(est > 0) || math.IsInf(est, 0) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	applied := c.lastApp[key]
	raw := est * math.Exp(-applied)
	if raw < 1 {
		raw = 1
	}
	t := math.Log(truth / raw)
	bk := bucketKey(key, magBucket(raw))
	b, ok := c.buckets.Peek(bk)
	if !ok {
		b = &bucket{key: bk, tables: append([]string(nil), tables...)}
	}
	c.publishLocked(b)
	alpha := math.Max(c.cfg.Alpha, 1/float64(b.n+1))
	b.logRatio += alpha * (t - b.logRatio)
	b.n++

	c.rm.Observations.Add(1)
	c.rm.PreQError.Observe(obs.QError(raw, truth))
	c.rm.PostQError.Observe(obs.QError(est, truth))
	c.trackDriftLocked(math.Abs(math.Log(est / truth)))
}

// publishLocked makes b the most recent bucket, inserting it (and evicting
// the coldest bucket past the entry bound) when it is new (c.mu held).
func (c *Corrector) publishLocked(b *bucket) {
	c.buckets.Put(b.key, b, bucketSize(b.key, b.tables), b.tables)
}

// trackDriftLocked folds one post-correction absolute log q-error into the
// rolling recent/baseline pair (c.mu held).
func (c *Corrector) trackDriftLocked(absLogQ float64) {
	if c.driftObs == 0 {
		c.recentErr, c.baselineErr = absLogQ, absLogQ
		c.driftObs = 1
		return
	}
	c.recentErr += 0.2 * (absLogQ - c.recentErr)
	c.baselineErr += 0.02 * (absLogQ - c.baselineErr)
	c.driftObs++
}

// Drifted reports whether the rolling recent q-error has pulled away from
// the baseline by the configured ratio — the signal the Monitor turns into
// a Refit. The recent error must also exceed a factor of 2 in q-error
// terms, so a workload whose estimates are uniformly excellent never
// refits over noise.
func (c *Corrector) Drifted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.driftObs >= c.cfg.DriftMinObservations &&
		c.recentErr > c.baselineErr*c.cfg.DriftRatio &&
		c.recentErr > math.Ln2
}

// Refit reacts to drift: every bucket's observation count is halved, so
// the adaptive EWMA step max(Alpha, 1/(n+1)) rises and buckets re-learn
// the shifted distribution faster, and the drift tracker restarts. The
// learned ratios are kept — drift rarely inverts them wholesale. Returns
// the resident bucket count.
func (c *Corrector) Refit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buckets.Range(func(_ string, b *bucket) { b.n /= 2 })
	c.recentErr, c.baselineErr, c.driftObs = 0, 0, 0
	c.rm.Refits.Add(1)
	return c.buckets.Len()
}

// Len returns the resident bucket count.
func (c *Corrector) Len() int { return c.buckets.Len() }

// Flush implements core.DerivedCache: every bucket, the pairing map, and
// the drift tracker are dropped (whole-model churn), returning how many
// buckets were resident.
func (c *Corrector) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.lastApp)
	c.recentErr, c.baselineErr, c.driftObs = 0, 0, 0
	return c.buckets.Flush()
}

// InvalidateTables implements core.DerivedCache: buckets whose template
// touches any of the named physical tables are dropped — their residuals
// measured a model that no longer serves the estimate. The pairing map and
// drift tracker reset too (cheap, and their state spans templates).
func (c *Corrector) InvalidateTables(tables ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.lastApp)
	c.recentErr, c.baselineErr, c.driftObs = 0, 0, 0
	return c.buckets.InvalidateTables(tables...)
}

// Stats implements core.DerivedCache.
func (c *Corrector) Stats() obs.CacheSnapshot {
	return c.buckets.Stats()
}

// Serialization: a fixed magic/version header, then buckets sorted by key
// with uvarint-length strings and fixed-width little-endian numerics. Two
// correctors holding the same buckets encode to identical bytes regardless
// of insertion or access order; the pairing map and drift tracker are
// transient and not persisted.
const (
	encodeMagic   = "BCRS"
	encodeVersion = 1
)

// Encode serializes the resident buckets byte-deterministically.
func (c *Corrector) Encode() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sorted []*bucket
	c.buckets.Range(func(_ string, b *bucket) { sorted = append(sorted, b) })
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	buf := append([]byte(encodeMagic), encodeVersion)
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	for _, b := range sorted {
		buf = appendString(buf, b.key)
		buf = binary.AppendUvarint(buf, uint64(len(b.tables)))
		for _, t := range b.tables {
			buf = appendString(buf, t)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.logRatio))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.n))
	}
	return buf
}

// Decode replaces the corrector's buckets with a previously encoded set
// (the replaced buckets count as invalidations). The LRU order after
// decoding is the (sorted) encoding order.
func (c *Corrector) Decode(data []byte) error {
	if len(data) < len(encodeMagic)+1 || string(data[:len(encodeMagic)]) != encodeMagic {
		return fmt.Errorf("residual: bad magic")
	}
	if data[len(encodeMagic)] != encodeVersion {
		return fmt.Errorf("residual: unsupported version %d", data[len(encodeMagic)])
	}
	r := data[len(encodeMagic)+1:]
	count, r, err := readUvarint(r)
	if err != nil {
		return err
	}
	var out []*bucket
	for i := uint64(0); i < count; i++ {
		d := &bucket{}
		if d.key, r, err = readString(r); err != nil {
			return err
		}
		var nt uint64
		if nt, r, err = readUvarint(r); err != nil {
			return err
		}
		for j := uint64(0); j < nt; j++ {
			var t string
			if t, r, err = readString(r); err != nil {
				return err
			}
			d.tables = append(d.tables, t)
		}
		if len(r) < 16 {
			return fmt.Errorf("residual: truncated bucket payload")
		}
		d.logRatio = math.Float64frombits(binary.LittleEndian.Uint64(r))
		d.n = int64(binary.LittleEndian.Uint64(r[8:]))
		r = r[16:]
		out = append(out, d)
	}
	if len(r) != 0 {
		return fmt.Errorf("residual: %d trailing bytes", len(r))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buckets.Flush()
	clear(c.lastApp)
	c.recentErr, c.baselineErr, c.driftObs = 0, 0, 0
	for _, b := range out {
		c.publishLocked(b)
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(r []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(r)
	if n <= 0 {
		return 0, nil, fmt.Errorf("residual: truncated varint")
	}
	return v, r[n:], nil
}

func readString(r []byte) (string, []byte, error) {
	n, r, err := readUvarint(r)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(r)) < n {
		return "", nil, fmt.Errorf("residual: truncated string")
	}
	return string(r[:n]), r[n:], nil
}
