// Package factorjoin implements the multi-table COUNT model ByteCard
// adopts: join-key domains are partitioned into equi-height "join buckets",
// each table keeps per-bucket statistics (count, distinct values, max
// value frequency), and a query-time factor graph over the join conditions
// combines per-table filtered bucket counts — supplied by the single-table
// Bayesian networks — into a join-size estimate or upper bound, without
// ever training on denormalized joins.
package factorjoin

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"bytecard/internal/catalog"
	"bytecard/internal/par"
	"bytecard/internal/storage"
)

// DefaultBucketCount matches the paper's equi-height bucket configuration.
const DefaultBucketCount = 200

// Buckets is the shared bucket layout of one join-key equivalence class.
type Buckets struct {
	// Class is the canonical class name (its first member reference).
	Class string
	// Bounds holds B+1 ascending boundaries; bucket i covers
	// [Bounds[i], Bounds[i+1]) with the last bucket closed.
	Bounds []float64
}

// Count returns the number of buckets.
func (b *Buckets) Count() int { return len(b.Bounds) - 1 }

// BucketOf maps a key value to its bucket, or -1 outside the domain.
func (b *Buckets) BucketOf(v float64) int {
	if v < b.Bounds[0] || v > b.Bounds[len(b.Bounds)-1] {
		return -1
	}
	i := sort.SearchFloat64s(b.Bounds, v)
	if i > 0 && (i >= len(b.Bounds) || b.Bounds[i] != v) {
		i--
	}
	if i >= b.Count() {
		i = b.Count() - 1
	}
	return i
}

// KeyStats are one table-column's per-bucket statistics (unfiltered; query
// filters arrive through the CountSource at inference time).
type KeyStats struct {
	Table  string
	Column string
	Class  string
	// Cnt is the row count per bucket.
	Cnt []float64
	// NDV is the distinct key count per bucket.
	NDV []float64
	// MaxF is the maximum single-value frequency per bucket (the quantity
	// FactorJoin's upper bound multiplies).
	MaxF []float64
}

// Model is a trained FactorJoin model for one dataset.
type Model struct {
	// BucketsByClass maps class name to layout.
	BucketsByClass map[string]*Buckets
	// Keys maps "table.column" to stats.
	Keys map[string]*KeyStats
	// PairJoint maps "table|colA|colB" (colA < colB) to the row-major
	// bucketsA×bucketsB joint count matrix — the key-tree conditionals
	// behind the distribution-dimension reduction for fact tables with
	// several join keys.
	PairJoint map[string][]float64
	// BuildSeconds records construction time (FactorJoin's "training").
	BuildSeconds float64

	// conds holds the key-tree conditionals inference has asked for so far
	// (see conditional); derived from the fields above, never serialized.
	derivedMu sync.RWMutex
	conds     map[condKey]*conditional
}

func keyName(table, column string) string { return table + "." + column }
func pairName(t, a, b string) string      { return t + "|" + a + "|" + b }
func orderedPair(a, b string) (string, string) {
	if a < b {
		return a, b
	}
	return b, a
}

// Build constructs join buckets and per-key statistics for every join class
// over the database, single-threaded. See BuildWorkers for the parallel
// variant; both produce byte-identical models.
func Build(db *storage.Database, classes []catalog.JoinClass, bucketCount int) (*Model, error) {
	return BuildWorkers(db, classes, bucketCount, 1)
}

// classWork is one join class's independent build unit: its resolved member
// columns going in, its bucket layout and per-member stats coming out.
type classWork struct {
	name    string
	refs    []catalog.ColumnRef
	cols    []*storage.Column
	buckets *Buckets
	stats   []*KeyStats
}

// pairWork is one multi-key table's (colA, colB) joint-matrix build unit.
type pairWork struct {
	table   string
	ca, cb  string
	ba, bb  *Buckets
	colA    *storage.Column
	colB    *storage.Column
	numRows int
	joint   []float64
}

// BuildWorkers constructs the model fanning the independent build units —
// one per join class (value union, bucket bounds, per-member key stats) and
// one per multi-key table column pair (joint bucket matrix) — across at
// most workers goroutines. Each unit writes only its own slot and all map
// merges run serially in deterministic order, so the resulting model is
// byte-identical for every worker count.
func BuildWorkers(db *storage.Database, classes []catalog.JoinClass, bucketCount, workers int) (*Model, error) {
	start := time.Now()
	if bucketCount <= 1 {
		bucketCount = DefaultBucketCount
	}
	if workers < 1 {
		workers = 1
	}
	m := &Model{
		BucketsByClass: map[string]*Buckets{},
		Keys:           map[string]*KeyStats{},
		PairJoint:      map[string][]float64{},
	}
	// Resolve member columns serially so reference errors surface in class
	// declaration order regardless of scheduling.
	var work []*classWork
	for _, class := range classes {
		if len(class.Members) == 0 {
			continue
		}
		cw := &classWork{name: class.Members[0].String()}
		for _, ref := range class.Members {
			t := db.Table(ref.Table)
			if t == nil {
				return nil, fmt.Errorf("factorjoin: class %s references unknown table %s", cw.name, ref.Table)
			}
			col := t.ColByName(ref.Column)
			if col == nil {
				return nil, fmt.Errorf("factorjoin: class %s references unknown column %s", cw.name, ref)
			}
			cw.refs = append(cw.refs, ref)
			cw.cols = append(cw.cols, col)
		}
		work = append(work, cw)
	}
	par.Do(len(work), workers, func(i int) {
		cw := work[i]
		// Union multiset of key values across member columns.
		var values []float64
		for _, col := range cw.cols {
			values = append(values, col.NumericAll()...)
		}
		if len(values) == 0 {
			return
		}
		cw.buckets = buildBuckets(cw.name, values, bucketCount)
		cw.stats = make([]*KeyStats, len(cw.cols))
		for j := range cw.cols {
			cw.stats[j] = buildKeyStats(cw.refs[j], cw.cols[j], cw.buckets)
		}
	})
	keysByTable := map[string][]*KeyStats{}
	var tableOrder []string
	for _, cw := range work {
		if cw.buckets == nil {
			continue
		}
		m.BucketsByClass[cw.name] = cw.buckets
		for j, ref := range cw.refs {
			m.Keys[keyName(ref.Table, ref.Column)] = cw.stats[j]
			if _, ok := keysByTable[ref.Table]; !ok {
				tableOrder = append(tableOrder, ref.Table)
			}
			keysByTable[ref.Table] = append(keysByTable[ref.Table], cw.stats[j])
		}
	}
	// Pairwise joint bucket matrices for multi-key tables.
	var pairs []*pairWork
	for _, table := range tableOrder {
		keys := keysByTable[table]
		if len(keys) < 2 {
			continue
		}
		t := db.Table(table)
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := keys[i], keys[j]
				ca, cb := a.Column, b.Column
				if cb < ca {
					a, b = b, a
					ca, cb = cb, ca
				}
				pairs = append(pairs, &pairWork{
					table: table, ca: ca, cb: cb,
					ba: m.BucketsByClass[a.Class], bb: m.BucketsByClass[b.Class],
					colA: t.ColByName(ca), colB: t.ColByName(cb), numRows: t.NumRows(),
				})
			}
		}
	}
	par.Do(len(pairs), workers, func(i int) {
		pw := pairs[i]
		joint := make([]float64, pw.ba.Count()*pw.bb.Count())
		nb := pw.bb.Count()
		for r := 0; r < pw.numRows; r++ {
			ia, ib := pw.ba.BucketOf(pw.colA.Numeric(r)), pw.bb.BucketOf(pw.colB.Numeric(r))
			if ia >= 0 && ib >= 0 {
				joint[ia*nb+ib]++
			}
		}
		pw.joint = joint
	})
	for _, pw := range pairs {
		m.PairJoint[pairName(pw.table, pw.ca, pw.cb)] = pw.joint
	}
	m.BuildSeconds = time.Since(start).Seconds()
	return m, nil
}

// buildBuckets derives strictly increasing equi-height bounds.
func buildBuckets(name string, values []float64, count int) *Buckets {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	target := float64(len(sorted)) / float64(count)
	bounds := []float64{sorted[0]}
	var acc float64
	for i := 0; i < len(sorted)-1; i++ {
		acc++
		if acc >= target && sorted[i+1] > bounds[len(bounds)-1] {
			bounds = append(bounds, sorted[i+1])
			acc = 0
		}
	}
	last := sorted[len(sorted)-1]
	if last > bounds[len(bounds)-1] {
		bounds = append(bounds, math.Nextafter(last, math.Inf(1)))
	} else {
		bounds = append(bounds, bounds[len(bounds)-1]+1)
	}
	return &Buckets{Class: name, Bounds: bounds}
}

func buildKeyStats(ref catalog.ColumnRef, col *storage.Column, buckets *Buckets) *KeyStats {
	n := buckets.Count()
	ks := &KeyStats{
		Table:  ref.Table,
		Column: ref.Column,
		Class:  buckets.Class,
		Cnt:    make([]float64, n),
		NDV:    make([]float64, n),
		MaxF:   make([]float64, n),
	}
	freq := make([]map[float64]float64, n)
	for i := range freq {
		freq[i] = map[float64]float64{}
	}
	for r := 0; r < col.Len(); r++ {
		v := col.Numeric(r)
		if b := buckets.BucketOf(v); b >= 0 {
			ks.Cnt[b]++
			freq[b][v]++
		}
	}
	for b := range freq {
		ks.NDV[b] = float64(len(freq[b]))
		//bytecard:unordered-ok max over a bucket's value frequencies is commutative
		for _, f := range freq[b] {
			if f > ks.MaxF[b] {
				ks.MaxF[b] = f
			}
		}
	}
	return ks
}

// BoundsFor exposes a key column's bucket bounds (the forced discretization
// the table's Bayesian network adopts so its key marginals align with the
// join buckets). ok is false for non-key columns.
func (m *Model) BoundsFor(table, column string) ([]float64, bool) {
	ks, ok := m.Keys[keyName(table, column)]
	if !ok {
		return nil, false
	}
	return m.BucketsByClass[ks.Class].Bounds, true
}

// NDVFor exposes a key column's exact per-bucket distinct counts (computed
// from the full column during the build). Tables' Bayesian networks adopt
// these as their bin NDVs so equality predicates on join keys estimate
// against exact distinct counts rather than sampled approximations.
func (m *Model) NDVFor(table, column string) ([]float64, bool) {
	ks, ok := m.Keys[keyName(table, column)]
	if !ok {
		return nil, false
	}
	return ks.NDV, true
}

// KeyColumns lists the join-key columns recorded for a table.
func (m *Model) KeyColumns(table string) []string {
	var out []string
	for _, ks := range m.Keys {
		if ks.Table == table {
			out = append(out, ks.Column)
		}
	}
	sort.Strings(out)
	return out
}

// SizeBytes reports the model's parameter footprint.
func (m *Model) SizeBytes() int64 {
	var total int64
	for _, b := range m.BucketsByClass {
		total += int64(len(b.Bounds)) * 8
	}
	for _, k := range m.Keys {
		total += int64(len(k.Cnt)+len(k.NDV)+len(k.MaxF)) * 8
	}
	for _, j := range m.PairJoint {
		total += int64(len(j)) * 8
	}
	return total
}

// sortedKeys returns m's keys in ascending order — every map the model owns
// is walked through this so serialization and validation are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// wireModel is the model's deterministic serialization shape: gob encodes
// maps in iteration order, which Go randomizes, so the maps are flattened
// into key-sorted slices first. Two builds of the same model therefore
// produce byte-identical artifacts, which keeps modelstore checksums and
// A/B regression diffs stable.
type wireModel struct {
	Classes      []wireClass
	Keys         []wireKey
	PairJoints   []wirePair
	BuildSeconds float64
}

type wireClass struct {
	Name    string
	Buckets *Buckets
}

type wireKey struct {
	Name  string
	Stats *KeyStats
}

type wirePair struct {
	Name  string
	Joint []float64
}

// Encode serializes the model with gob over the key-sorted wire format;
// equal models encode to equal bytes.
func (m *Model) Encode() ([]byte, error) {
	w := wireModel{BuildSeconds: m.BuildSeconds}
	for _, name := range sortedKeys(m.BucketsByClass) {
		w.Classes = append(w.Classes, wireClass{Name: name, Buckets: m.BucketsByClass[name]})
	}
	for _, name := range sortedKeys(m.Keys) {
		w.Keys = append(w.Keys, wireKey{Name: name, Stats: m.Keys[name]})
	}
	for _, name := range sortedKeys(m.PairJoint) {
		w.PairJoints = append(w.PairJoints, wirePair{Name: name, Joint: m.PairJoint[name]})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes and validates a model.
func Decode(data []byte) (*Model, error) {
	var w wireModel
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	m := &Model{
		BucketsByClass: make(map[string]*Buckets, len(w.Classes)),
		Keys:           make(map[string]*KeyStats, len(w.Keys)),
		PairJoint:      make(map[string][]float64, len(w.PairJoints)),
		BuildSeconds:   w.BuildSeconds,
	}
	for _, c := range w.Classes {
		m.BucketsByClass[c.Name] = c.Buckets
	}
	for _, k := range w.Keys {
		m.Keys[k.Name] = k.Stats
	}
	for _, p := range w.PairJoints {
		m.PairJoint[p.Name] = p.Joint
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks structural consistency (the Model Validator health hook).
// Maps are walked in key order so a multi-problem model always reports the
// same first error.
func (m *Model) Validate() error {
	if len(m.BucketsByClass) == 0 {
		return errors.New("factorjoin: model has no join classes")
	}
	for _, name := range sortedKeys(m.BucketsByClass) {
		b := m.BucketsByClass[name]
		if b == nil {
			return fmt.Errorf("factorjoin: class %s has no layout", name)
		}
		if len(b.Bounds) < 2 {
			return fmt.Errorf("factorjoin: class %s has %d bounds", name, len(b.Bounds))
		}
		if !sort.Float64sAreSorted(b.Bounds) {
			return fmt.Errorf("factorjoin: class %s bounds unsorted", name)
		}
	}
	for _, name := range sortedKeys(m.Keys) {
		k := m.Keys[name]
		if k == nil {
			return fmt.Errorf("factorjoin: key %s has no stats", name)
		}
		b, ok := m.BucketsByClass[k.Class]
		if !ok {
			return fmt.Errorf("factorjoin: key %s references unknown class %s", name, k.Class)
		}
		n := b.Count()
		if len(k.Cnt) != n || len(k.NDV) != n || len(k.MaxF) != n {
			return fmt.Errorf("factorjoin: key %s stats misshaped", name)
		}
		for i := range k.Cnt {
			if k.Cnt[i] < 0 || math.IsNaN(k.Cnt[i]) || k.MaxF[i] > k.Cnt[i] || k.NDV[i] > k.Cnt[i] {
				return fmt.Errorf("factorjoin: key %s bucket %d inconsistent", name, i)
			}
		}
	}
	for _, name := range sortedKeys(m.PairJoint) {
		if err := m.validatePair(name, m.PairJoint[name]); err != nil {
			return err
		}
	}
	return nil
}

// validatePair checks one pairwise joint: its name is "table|colA|colB"
// with colA < colB two key columns of the table, it holds one count per
// pair of their buckets, and every count is finite and non-negative.
func (m *Model) validatePair(name string, joint []float64) error {
	parts := strings.Split(name, "|")
	if len(parts) != 3 || parts[1] >= parts[2] {
		return fmt.Errorf("factorjoin: pair %s does not name two ordered columns of one table", name)
	}
	n := 1
	for _, col := range parts[1:] {
		k, ok := m.Keys[keyName(parts[0], col)]
		if !ok {
			return fmt.Errorf("factorjoin: pair %s references %s.%s, which has no key stats", name, parts[0], col)
		}
		n *= m.BucketsByClass[k.Class].Count()
	}
	if len(joint) != n {
		return fmt.Errorf("factorjoin: pair %s holds %d counts, want %d", name, len(joint), n)
	}
	for i, c := range joint {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("factorjoin: pair %s count %d is %v", name, i, c)
		}
	}
	return nil
}
