// Package types defines the value model shared by the storage layer, the
// query engine, and every cardinality estimator: column kinds, runtime
// datums, and the preliminary type mapping from database types to the
// machine-learning types used during model training.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the database type of a column.
type Kind int

const (
	// KindInt64 is a signed 64-bit integer column.
	KindInt64 Kind = iota
	// KindFloat64 is a double-precision floating point column.
	KindFloat64
	// KindString is a variable-length string column (dictionary encoded
	// by the storage layer).
	KindString
	// KindArray is a nested array column. Arrays are stored but excluded
	// from model training by the preprocessor.
	KindArray
	// KindMap is a nested map column, likewise excluded from training.
	KindMap
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "INT64"
	case KindFloat64:
		return "FLOAT64"
	case KindString:
		return "STRING"
	case KindArray:
		return "ARRAY"
	case KindMap:
		return "MAP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Scalar reports whether columns of this kind hold scalar values that the
// CardEst models can consume.
func (k Kind) Scalar() bool {
	return k == KindInt64 || k == KindFloat64 || k == KindString
}

// MLType is the machine-learning type a column is mapped to before model
// training (the paper's "preliminary type-mapping" step).
type MLType int

const (
	// MLUnsupported marks columns excluded from training (nested types).
	MLUnsupported MLType = iota
	// MLBinary marks two-valued columns.
	MLBinary
	// MLCategorical marks low-cardinality discrete columns.
	MLCategorical
	// MLContinuous marks numeric columns with wide domains that must be
	// discretized into bins before they enter a Bayesian network.
	MLContinuous
)

// String returns the name of the ML type.
func (t MLType) String() string {
	switch t {
	case MLBinary:
		return "Binary"
	case MLCategorical:
		return "Categorical"
	case MLContinuous:
		return "Continuous"
	default:
		return "Unsupported"
	}
}

// CategoricalThreshold is the distinct-count boundary between categorical
// and continuous treatment during type mapping.
const CategoricalThreshold = 256

// MapToML implements the preliminary type mapping: nested kinds are
// unsupported, two-valued columns are binary, strings and narrow numeric
// domains are categorical, and everything else is continuous.
func MapToML(k Kind, distinct int64) MLType {
	if !k.Scalar() {
		return MLUnsupported
	}
	switch {
	case distinct == 2:
		return MLBinary
	case k == KindString || distinct <= CategoricalThreshold:
		return MLCategorical
	default:
		return MLContinuous
	}
}

// Datum is a runtime value: one cell of one row. The zero value is the
// int64 zero.
type Datum struct {
	K Kind
	I int64
	F float64
	S string
}

// Int returns an int64 datum.
func Int(v int64) Datum { return Datum{K: KindInt64, I: v} }

// Float returns a float64 datum.
func Float(v float64) Datum { return Datum{K: KindFloat64, F: v} }

// Str returns a string datum.
func Str(v string) Datum { return Datum{K: KindString, S: v} }

// Arr returns an array datum holding a serialized payload. Nested values
// are stored opaquely; models never consume them (the preprocessor excludes
// nested kinds from training).
func Arr(payload string) Datum { return Datum{K: KindArray, S: payload} }

// MapVal returns a map datum holding a serialized payload.
func MapVal(payload string) Datum { return Datum{K: KindMap, S: payload} }

// IsNumeric reports whether the datum holds an int64 or float64.
func (d Datum) IsNumeric() bool { return d.K == KindInt64 || d.K == KindFloat64 }

// AsFloat converts a numeric datum to float64. String datums return NaN.
func (d Datum) AsFloat() float64 {
	switch d.K {
	case KindInt64:
		return float64(d.I)
	case KindFloat64:
		return d.F
	default:
		return math.NaN()
	}
}

// Compare orders two datums: -1 if d < o, 0 if equal, +1 if d > o.
// Numeric kinds compare by value with int/float coercion; strings compare
// lexicographically. The order is total: NaN equals NaN and sorts above
// +Inf, as PostgreSQL orders it. Comparing a string with a numeric datum
// panics — the analyzer rejects such predicates before execution.
func (d Datum) Compare(o Datum) int {
	if !d.IsNumeric() || !o.IsNumeric() {
		if d.K != o.K {
			panic(fmt.Sprintf("types: cannot compare %s with %s", d.K, o.K))
		}
		switch {
		case d.S < o.S:
			return -1
		case d.S > o.S:
			return 1
		default:
			return 0
		}
	}
	if d.K == KindInt64 && o.K == KindInt64 {
		switch {
		case d.I < o.I:
			return -1
		case d.I > o.I:
			return 1
		default:
			return 0
		}
	}
	a, b := d.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one side is NaN.
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	default:
		return -1
	}
}

// Equal reports whether two datums compare equal.
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

// Less reports whether d orders strictly before o.
func (d Datum) Less(o Datum) bool { return d.Compare(o) < 0 }

// Hash64 returns a 64-bit hash of the datum, suitable for hash joins,
// aggregation tables, and HyperLogLog registration. Equal non-NaN numeric
// datums hash identically, int64 and float64 alike.
func (d Datum) Hash64() uint64 {
	// FNV-1a, inlined: no hash.Hash64 interface value and no []byte(d.S)
	// conversion on what is a per-row path (HLL registration, aggregation
	// keys).
	switch d.K {
	case KindString, KindArray, KindMap:
		h := uint64(fnvOffset64)
		h = (h ^ 's') * fnvPrime64
		for i := 0; i < len(d.S); i++ {
			h = (h ^ uint64(d.S[i])) * fnvPrime64
		}
		return fmix64(h)
	}
	f := d.AsFloat()
	tag, v := uint64('f'), math.Float64bits(f)
	if f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
		// Normalize integral values so Int(3) and Float(3.0) land in the
		// same hash bucket. Only values int64 holds: past its range the
		// conversion saturates, and every huge float would hash alike.
		tag, v = 'i', uint64(int64(f))
	}
	h := uint64(fnvOffset64)
	h = (h ^ tag) * fnvPrime64
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * fnvPrime64
	}
	return fmix64(h)
}

// FNV-1a 64-bit parameters (hash/fnv's, spelled out for the inlined loop).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fmix64 is the murmur3 finalizer; FNV-1a alone mixes high bits poorly on
// short sequential inputs, which skews HyperLogLog register selection.
func fmix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// String renders the datum as a SQL literal.
func (d Datum) String() string {
	switch d.K {
	case KindInt64:
		return strconv.FormatInt(d.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindString:
		// Escape embedded quotes SQL-style so the literal re-parses
		// (the round-trip guarantee sqlparse.SelectStmt.String documents).
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	default:
		return fmt.Sprintf("<%s>", d.K)
	}
}
