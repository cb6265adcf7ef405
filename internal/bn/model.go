// Package bn implements ByteCard's single-table COUNT model: a
// tree-structured Bayesian network over discretized columns. Structure is
// learned with the Chow-Liu algorithm (maximum-spanning tree over pairwise
// mutual information), parameters with maximum likelihood plus
// Expectation-Maximization when training rows carry missing values, and
// inference runs variable elimination / belief propagation over an
// immutable, topologically indexed context so concurrent query threads
// never contend (the paper's initContext design).
package bn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"

	"bytecard/internal/expr"
)

// DefaultMaxBins bounds the discretized domain of a continuous column.
const DefaultMaxBins = 32

// ColumnModel is the discretizer for one column: either categorical (one
// bin per observed value) or binned (equi-height ranges over the numeric
// image).
type ColumnModel struct {
	Name string
	// Categorical reports whether bins map 1:1 to values.
	Categorical bool
	// Values holds the sorted distinct values for categorical columns.
	Values []float64
	// Bounds holds bins+1 ascending boundaries for binned columns; bin i
	// covers [Bounds[i], Bounds[i+1]) with the last bin closed.
	Bounds []float64
	// BinNDV estimates the number of distinct values per bin (for
	// equality selectivity inside a bin).
	BinNDV []float64
}

// Bins returns the discretized domain size.
func (c *ColumnModel) Bins() int {
	if c.Categorical {
		return len(c.Values)
	}
	return len(c.Bounds) - 1
}

// BinOf maps a value to its bin, or -1 when the value is outside the
// learned domain (categorical miss).
func (c *ColumnModel) BinOf(v float64) int {
	if c.Categorical {
		i := sort.SearchFloat64s(c.Values, v)
		if i < len(c.Values) && c.Values[i] == v {
			return i
		}
		return -1
	}
	if v < c.Bounds[0] || v > c.Bounds[len(c.Bounds)-1] {
		return -1
	}
	i := sort.SearchFloat64s(c.Bounds, v)
	// SearchFloat64s returns the first boundary >= v.
	if i > 0 && (i >= len(c.Bounds) || c.Bounds[i] != v) {
		i--
	}
	if i >= c.Bins() {
		i = c.Bins() - 1
	}
	return i
}

// Weights converts a compiled column constraint into per-bin inclusion
// weights in [0,1]: the estimated fraction of each bin's rows satisfying
// the constraint (uniformity within a bin, 1/NDV for point predicates).
func (c *ColumnModel) Weights(cons expr.Constraint) []float64 {
	n := c.Bins()
	w := make([]float64, n)
	if cons.Empty {
		return w
	}
	if c.Categorical {
		for i, v := range c.Values {
			if cons.Contains(v) {
				w[i] = 1
			}
		}
		return w
	}
	if cons.HasEq {
		// Point predicate: the containing bin contributes one of its
		// distinct values (fractional overlap would be zero-width).
		if i := c.BinOf(cons.Lo); i >= 0 {
			d := c.BinNDV[i]
			if d < 1 {
				d = 1
			}
			w[i] = 1 / d
		}
		return w
	}
	for i := 0; i < n; i++ {
		lo, hi := c.Bounds[i], c.Bounds[i+1]
		w[i] = binOverlap(lo, hi, i == n-1, cons)
		if w[i] == 0 && cons.Contains(lo) {
			// Discrete correction: the bin's lower boundary value is
			// admitted even though the continuous overlap has measure
			// zero (e.g. v <= domainMin).
			d := c.BinNDV[i]
			if d < 1 {
				d = 1
			}
			w[i] = 1 / d
		}
		if w[i] > 0 && len(cons.Ne) > 0 {
			d := c.BinNDV[i]
			if d < 1 {
				d = 1
			}
			for _, ne := range cons.Ne {
				if ne >= lo && ne <= hi {
					w[i] -= 1 / d
				}
			}
			if w[i] < 0 {
				w[i] = 0
			}
		}
	}
	return w
}

// binOverlap estimates the fraction of bin [lo,hi] covered by the
// constraint interval under within-bin uniformity.
func binOverlap(lo, hi float64, lastBin bool, cons expr.Constraint) float64 {
	clo, chi := math.Max(lo, cons.Lo), math.Min(hi, cons.Hi)
	if chi < clo {
		return 0
	}
	width := hi - lo
	if width == 0 {
		if cons.Contains(lo) {
			return 1
		}
		return 0
	}
	frac := (chi - clo) / width
	if !lastBin && chi == hi && cons.Hi >= hi {
		// Bin is half-open: fine, full coverage on the right.
		frac = (hi - clo) / width
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Model is a trained tree Bayesian network.
type Model struct {
	Table string
	// Rows is the training population size (for cardinality scaling).
	Rows float64
	Cols []ColumnModel
	// Parent[i] is the parent node of column i, or -1 for the root.
	Parent []int
	// Prior is the root's marginal distribution.
	Prior []float64
	// CPT[i] is nil for the root; otherwise row-major
	// P(x_i = b | x_parent = a) at [a*Bins(i)+b].
	CPT [][]float64
	// TrainSeconds records the total training wall time.
	TrainSeconds float64
	// StructureSeconds records the Chow-Liu stage (MI matrix + spanning
	// tree) within TrainSeconds; ParamSeconds records parameter learning
	// (ML counts plus EM sweeps). Both are additive gob fields: models
	// serialized before they existed decode with zeros.
	StructureSeconds float64
	ParamSeconds     float64
}

// ColIndex returns the index of the named column, or -1.
func (m *Model) ColIndex(name string) int {
	for i := range m.Cols {
		if m.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// Root returns the root node index.
func (m *Model) Root() int {
	for i, p := range m.Parent {
		if p < 0 {
			return i
		}
	}
	return -1
}

// SizeBytes reports the serialized parameter footprint.
func (m *Model) SizeBytes() int64 {
	var total int64
	total += int64(len(m.Prior)) * 8
	for _, cpt := range m.CPT {
		total += int64(len(cpt)) * 8
	}
	for i := range m.Cols {
		total += int64(len(m.Cols[i].Values)+len(m.Cols[i].Bounds)+len(m.Cols[i].BinNDV)) * 8
	}
	return total
}

// Encode serializes the model with gob.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes and validates a model.
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate is the health detector: the parent relation must form a tree
// rooted at exactly one node (cycle detection — the DAG check the paper's
// Model Validator runs), and every distribution must be a finite,
// normalized probability vector.
func (m *Model) Validate() error {
	n := len(m.Cols)
	if n == 0 {
		return errors.New("bn: model has no columns")
	}
	if len(m.Parent) != n || len(m.CPT) != n {
		return fmt.Errorf("bn: structure arrays sized %d/%d, want %d", len(m.Parent), len(m.CPT), n)
	}
	roots := 0
	for i, p := range m.Parent {
		if p < 0 {
			roots++
			continue
		}
		if p >= n {
			return fmt.Errorf("bn: node %d has out-of-range parent %d", i, p)
		}
	}
	if roots != 1 {
		return fmt.Errorf("bn: %d roots, want exactly 1", roots)
	}
	// Cycle detection: walk each node to the root.
	for i := range m.Parent {
		seen := map[int]bool{}
		for cur := i; cur >= 0; cur = m.Parent[cur] {
			if seen[cur] {
				return fmt.Errorf("bn: cycle through node %d — structure is not a DAG", cur)
			}
			seen[cur] = true
		}
	}
	for i := range m.Cols {
		if err := m.Cols[i].validate(); err != nil {
			return fmt.Errorf("bn: column %d: %w", i, err)
		}
	}
	root := m.Root()
	if len(m.Prior) != m.Cols[root].Bins() {
		return fmt.Errorf("bn: prior has %d entries, root has %d bins", len(m.Prior), m.Cols[root].Bins())
	}
	if err := checkDist(m.Prior); err != nil {
		return fmt.Errorf("bn: prior: %w", err)
	}
	for i := range m.Cols {
		if i == root {
			if m.CPT[i] != nil {
				return fmt.Errorf("bn: root %d must not carry a CPT", i)
			}
			continue
		}
		pb, cb := m.Cols[m.Parent[i]].Bins(), m.Cols[i].Bins()
		if len(m.CPT[i]) != pb*cb {
			return fmt.Errorf("bn: node %d CPT sized %d, want %d", i, len(m.CPT[i]), pb*cb)
		}
		for a := 0; a < pb; a++ {
			if err := checkDist(m.CPT[i][a*cb : (a+1)*cb]); err != nil {
				return fmt.Errorf("bn: node %d row %d: %w", i, a, err)
			}
		}
	}
	return nil
}

// validate checks the discretizer is one BinOf and Weights can read:
// finite, ascending values or bounds and, for a binned column, one finite
// distinct-value estimate per bin.
func (c *ColumnModel) validate() error {
	points := c.Bounds
	if c.Categorical {
		points = c.Values
	} else if len(c.BinNDV) != c.Bins() {
		return fmt.Errorf("%d distinct-value estimates for %d bins", len(c.BinNDV), c.Bins())
	}
	for i, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) || i > 0 && v < points[i-1] {
			return errors.New("values or bounds not finite and ascending")
		}
	}
	for _, d := range c.BinNDV {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return errors.New("non-finite distinct-value estimate")
		}
	}
	return nil
}

func checkDist(p []float64) error {
	var sum float64
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return errors.New("non-finite or negative probability")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("distribution sums to %g", sum)
	}
	return nil
}
