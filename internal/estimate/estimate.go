// Package estimate is the shape a learned estimate takes inside the
// estimator, from the inference guard to the arithmetic after it. Clamp is
// the only function that fills a Value, so a function that returns one
// cannot hand back NaN or ±Inf, and a non-zero Value lies inside the bounds
// it was clamped to. The planner-facing estimator methods still return
// float64; the type does not reach past them.
package estimate

// Value is an estimate already inside the [lo, hi] bounds of the quantity
// it estimates. The zero Value is 0, which may lie below lo: return it
// only beside an error.
type Value struct{ v float64 }

// Clamp bounds v to [lo, hi]: below lo (or NaN) becomes lo, above hi
// becomes hi, and a v inside the bounds is kept bit for bit.
func Clamp(v, lo, hi float64) Value {
	switch {
	case !(v >= lo):
		return Value{lo}
	case v > hi:
		return Value{hi}
	}
	return Value{v}
}

// Float returns the bounded estimate.
func (x Value) Float() float64 { return x.v }
