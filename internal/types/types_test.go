package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt64:   "INT64",
		KindFloat64: "FLOAT64",
		KindString:  "STRING",
		KindArray:   "ARRAY",
		KindMap:     "MAP",
		Kind(99):    "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestKindScalar(t *testing.T) {
	if !KindInt64.Scalar() || !KindFloat64.Scalar() || !KindString.Scalar() {
		t.Error("scalar kinds must report Scalar() = true")
	}
	if KindArray.Scalar() || KindMap.Scalar() {
		t.Error("nested kinds must report Scalar() = false")
	}
}

func TestMapToML(t *testing.T) {
	cases := []struct {
		kind     Kind
		distinct int64
		want     MLType
	}{
		{KindArray, 10, MLUnsupported},
		{KindMap, 10, MLUnsupported},
		{KindInt64, 2, MLBinary},
		{KindString, 2, MLBinary},
		{KindString, 100000, MLCategorical},
		{KindInt64, 100, MLCategorical},
		{KindInt64, CategoricalThreshold, MLCategorical},
		{KindInt64, CategoricalThreshold + 1, MLContinuous},
		{KindFloat64, 1000000, MLContinuous},
	}
	for _, c := range cases {
		if got := MapToML(c.kind, c.distinct); got != c.want {
			t.Errorf("MapToML(%s, %d) = %s, want %s", c.kind, c.distinct, got, c.want)
		}
	}
}

func TestMLTypeString(t *testing.T) {
	if MLBinary.String() != "Binary" || MLCategorical.String() != "Categorical" ||
		MLContinuous.String() != "Continuous" || MLUnsupported.String() != "Unsupported" {
		t.Error("MLType.String() mismatch")
	}
}

func TestDatumCompareInts(t *testing.T) {
	if Int(1).Compare(Int(2)) != -1 || Int(2).Compare(Int(1)) != 1 || Int(5).Compare(Int(5)) != 0 {
		t.Error("int comparison broken")
	}
}

func TestDatumCompareMixedNumeric(t *testing.T) {
	if Int(3).Compare(Float(3.0)) != 0 {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Compare(Float(3.5)) != -1 {
		t.Error("Int(3) should be less than Float(3.5)")
	}
	if Float(4.5).Compare(Int(4)) != 1 {
		t.Error("Float(4.5) should be greater than Int(4)")
	}
}

// TestDatumCompareNaN: the order is total — NaN equals NaN, whatever its
// bits, and sorts above every number, +Inf and the int64 extremes too.
func TestDatumCompareNaN(t *testing.T) {
	nan, other := Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000002))
	if nan.Compare(other) != 0 || other.Compare(nan) != 0 {
		t.Error("NaN must equal NaN")
	}
	for _, d := range []Datum{Float(math.Inf(1)), Float(math.Inf(-1)), Float(0), Int(math.MaxInt64), Int(math.MinInt64)} {
		if nan.Compare(d) != 1 || d.Compare(nan) != -1 {
			t.Errorf("NaN must sort above %v", d)
		}
	}
}

func TestDatumCompareStrings(t *testing.T) {
	if Str("a").Compare(Str("b")) != -1 || Str("b").Compare(Str("a")) != 1 || Str("x").Compare(Str("x")) != 0 {
		t.Error("string comparison broken")
	}
}

func TestDatumCompareStringNumericPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("comparing string with int must panic")
		}
	}()
	Str("a").Compare(Int(1))
}

func TestDatumEqualLess(t *testing.T) {
	if !Int(7).Equal(Int(7)) || Int(7).Equal(Int(8)) {
		t.Error("Equal broken")
	}
	if !Int(7).Less(Int(8)) || Int(8).Less(Int(7)) {
		t.Error("Less broken")
	}
}

func TestDatumAsFloat(t *testing.T) {
	if Int(42).AsFloat() != 42 {
		t.Error("Int AsFloat")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float AsFloat")
	}
	if !math.IsNaN(Str("x").AsFloat()) {
		t.Error("string AsFloat must be NaN")
	}
}

func TestDatumIsNumeric(t *testing.T) {
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() || Str("1").IsNumeric() {
		t.Error("IsNumeric broken")
	}
}

func TestDatumHashIntFloatAgree(t *testing.T) {
	if Int(123).Hash64() != Float(123).Hash64() {
		t.Error("Int(123) and Float(123.0) must hash identically")
	}
	if Int(123).Hash64() == Int(124).Hash64() {
		t.Error("adjacent ints should not collide")
	}
}

func TestDatumHashStringDistinctFromNumeric(t *testing.T) {
	if Str("123").Hash64() == Int(123).Hash64() {
		t.Error("string '123' must not hash as the number 123")
	}
}

func TestDatumString(t *testing.T) {
	if Int(-5).String() != "-5" {
		t.Errorf("Int(-5).String() = %q", Int(-5).String())
	}
	if Float(2.5).String() != "2.5" {
		t.Errorf("Float(2.5).String() = %q", Float(2.5).String())
	}
	if Str("hi").String() != "'hi'" {
		t.Errorf("Str(hi).String() = %q", Str("hi").String())
	}
	if Str("O'Brien").String() != "'O''Brien'" {
		t.Errorf("Str(O'Brien).String() = %q; embedded quotes must escape SQL-style", Str("O'Brien").String())
	}
}

// Property: Compare is antisymmetric and Equal is reflexive for ints.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hash is deterministic, and equal non-NaN numeric datums —
// int or float, −0 or +0, inside or past int64's range — hash equal.
func TestQuickHashDeterministic(t *testing.T) {
	f := func(a int64, b float64, exp uint8) bool {
		c := math.Ldexp(math.Trunc(b), int(exp%80)) // integral, often past ±2^63
		ds := []Datum{Int(a), Float(float64(a)), Float(b), Float(-b), Float(c), Float(-c), Float(math.Copysign(0, -1)), Int(0)}
		if c >= -1<<63 && c < 1<<63 {
			ds = append(ds, Int(int64(c)))
		}
		for _, x := range ds {
			for _, y := range ds {
				if !math.IsNaN(x.AsFloat()) && !math.IsNaN(y.AsFloat()) && x.Equal(y) && x.Hash64() != y.Hash64() {
					return false
				}
			}
		}
		return Int(a).Hash64() == Int(a).Hash64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	huge := []Datum{Float(1e300), Float(2e300), Float(1e19), Float(-1e300), Int(math.MinInt64)}
	for i, x := range huge {
		for _, y := range huge[i+1:] {
			if x.Hash64() == y.Hash64() {
				t.Errorf("%v and %v hash alike", x, y)
			}
		}
	}
}

// Property: string ordering matches Go's native ordering.
func TestQuickStringOrder(t *testing.T) {
	f := func(a, b string) bool {
		got := Str(a).Compare(Str(b))
		switch {
		case a < b:
			return got == -1
		case a > b:
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHash64Golden pins Hash64 bit for bit: HLL sketches, sample hashes and
// persisted models were built with these values, so the function may get
// faster but never different. The table was produced by the hash/fnv-based
// implementation this one replaced.
func TestHash64Golden(t *testing.T) {
	cases := []struct {
		d    Datum
		want uint64
	}{
		{Int(0), 0xf91e3bab850ef2ff},
		{Int(1), 0x4c131ef12b4020e1},
		{Int(-1), 0x16446363ed6064e5},
		{Int(3), 0x23bdf63cde125cd9},
		{Int(42), 0xe6c6085b016de4f4},
		{Int(1 << 40), 0xc668bc90f250450b},
		{Int(math.MinInt64), 0x945abbad40a5e44e},
		{Float(3), 0x23bdf63cde125cd9},
		{Float(-7), 0x29ed376646a17607},
		{Float(0.5), 0xd5d226ad5f671c0c},
		{Float(-2.25), 0x460a8a503073f72e},
		{Float(0), 0xf91e3bab850ef2ff},
		{Float(math.Copysign(0, -1)), 0xf91e3bab850ef2ff},
		{Float(math.Inf(1)), 0xa10577887b2d4439},
		{Float(math.Inf(-1)), 0x47740380e6291125},
		{Float(-1 << 63), 0x945abbad40a5e44e},
		// Integral floats outside int64's range hash by their bits, each
		// its own value (they once all saturated to MinInt64's hash).
		{Float(1e300), 0xd2baa1586fdcc7bf},
		{Float(2e300), 0x0a35d80bcec84480},
		{Float(1e19), 0xc7941481531bf752},
		{Float(-1e300), 0x9911f76183c3b9f7},
		{Str(""), 0xcc38350dbfbd2cea},
		{Str("a"), 0xc9249dc50390899c},
		{Str("hello world"), 0xa2cd37b7d5420eef},
		{Str("héllo\x00\xff"), 0xb8c4360894891a24},
		{Arr("[1,2]"), 0x77682f5b203eebd6},
		{MapVal("{k:v}"), 0x2c27fb699c616f8a},
	}
	for _, c := range cases {
		if got := c.d.Hash64(); got != c.want {
			t.Errorf("%s %v: Hash64 = %#016x, want %#016x", c.d.K, c.d, got, c.want)
		}
	}
}
