package estimate

import (
	"math"
	"testing"
)

// TestClamp pins the one constructor: out-of-range and NaN inputs land on
// a bound, and an in-range value — negative zero included — keeps its bits.
func TestClamp(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 1, 10, 5},
		{1, 1, 10, 1},
		{10, 1, 10, 10},
		{0.2, 1, 10, 1},
		{1e12, 1, 10, 10},
		{math.NaN(), 1, 10, 1},
		{math.Inf(1), 1, 10, 10},
		{math.Inf(-1), 1, 10, 1},
		{negZero, 0, 1, negZero},
	}
	for _, c := range cases {
		got := Clamp(c.v, c.lo, c.hi).Float()
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}
