package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bytecard/internal/types"
)

func pred(col string, op CmpOp, v int64) Pred {
	return Pred{Table: "t", Col: col, Op: op, Val: types.Int(v)}
}

func TestCmpOpApply(t *testing.T) {
	cases := []struct {
		op   CmpOp
		cmp  int
		want bool
	}{
		{OpEq, 0, true}, {OpEq, 1, false},
		{OpNe, 0, false}, {OpNe, -1, true},
		{OpLt, -1, true}, {OpLt, 0, false},
		{OpLe, 0, true}, {OpLe, 1, false},
		{OpGt, 1, true}, {OpGt, 0, false},
		{OpGe, 0, true}, {OpGe, -1, false},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.cmp); got != c.want {
			t.Errorf("%s.Apply(%d) = %v, want %v", c.op, c.cmp, got, c.want)
		}
	}
}

func TestPredEvalAndString(t *testing.T) {
	p := pred("a", OpGe, 10)
	if !p.Eval(types.Int(10)) || p.Eval(types.Int(9)) {
		t.Error("Pred.Eval broken")
	}
	if p.String() != "t.a >= 10" {
		t.Errorf("String = %q", p.String())
	}
}

func TestAndOrFlatten(t *testing.T) {
	a, b, c := Leaf(pred("a", OpEq, 1)), Leaf(pred("b", OpEq, 2)), Leaf(pred("c", OpEq, 3))
	n := And(And(a, b), c)
	if n.Kind != KindAnd || len(n.Children) != 3 {
		t.Errorf("nested AND must flatten: kind=%v children=%d", n.Kind, len(n.Children))
	}
	m := Or(a, Or(b, c))
	if m.Kind != KindOr || len(m.Children) != 3 {
		t.Error("nested OR must flatten")
	}
	if And() != nil {
		t.Error("empty And must be nil")
	}
	if And(a) != a {
		t.Error("single-child And must collapse")
	}
	if And(nil, a) != a {
		t.Error("nil children must be dropped")
	}
}

func TestNodeEval(t *testing.T) {
	n := And(
		Leaf(pred("a", OpGt, 5)),
		Or(Leaf(pred("b", OpEq, 1)), Leaf(pred("b", OpEq, 2))),
	)
	get := func(vals map[string]int64) func(string, string) types.Datum {
		return func(_, col string) types.Datum { return types.Int(vals[col]) }
	}
	if !n.Eval(get(map[string]int64{"a": 6, "b": 2})) {
		t.Error("expected true")
	}
	if n.Eval(get(map[string]int64{"a": 6, "b": 3})) {
		t.Error("expected false (b not in {1,2})")
	}
	if n.Eval(get(map[string]int64{"a": 5, "b": 1})) {
		t.Error("expected false (a not > 5)")
	}
	if !(*Node)(nil).Eval(get(nil)) {
		t.Error("nil node must be true")
	}
}

func TestLeavesAndTables(t *testing.T) {
	n := And(
		Leaf(Pred{Table: "x", Col: "a", Op: OpEq, Val: types.Int(1)}),
		Leaf(Pred{Table: "y", Col: "b", Op: OpEq, Val: types.Int(2)}),
		Leaf(Pred{Table: "x", Col: "c", Op: OpEq, Val: types.Int(3)}),
	)
	if got := len(n.Leaves()); got != 3 {
		t.Errorf("Leaves = %d, want 3", got)
	}
	tabs := n.Tables()
	if len(tabs) != 2 || tabs[0] != "x" || tabs[1] != "y" {
		t.Errorf("Tables = %v", tabs)
	}
}

func TestConjunction(t *testing.T) {
	n := And(Leaf(pred("a", OpEq, 1)), Leaf(pred("b", OpGt, 2)))
	preds, ok := n.Conjunction()
	if !ok || len(preds) != 2 {
		t.Error("pure AND must extract")
	}
	m := Or(Leaf(pred("a", OpEq, 1)), Leaf(pred("b", OpGt, 2)))
	if _, ok := m.Conjunction(); ok {
		t.Error("OR must not be a conjunction")
	}
	if preds, ok := (*Node)(nil).Conjunction(); !ok || preds != nil {
		t.Error("nil conjunction broken")
	}
	if _, ok := And(Leaf(pred("a", OpEq, 1)), m).Conjunction(); ok {
		t.Error("AND with OR child is not a pure conjunction")
	}
}

func TestDNF(t *testing.T) {
	// (a=1 OR a=2) AND b=3 → [a=1,b=3], [a=2,b=3]
	n := And(
		Or(Leaf(pred("a", OpEq, 1)), Leaf(pred("a", OpEq, 2))),
		Leaf(pred("b", OpEq, 3)),
	)
	dnf, err := n.DNF()
	if err != nil {
		t.Fatal(err)
	}
	if len(dnf) != 2 || len(dnf[0]) != 2 || len(dnf[1]) != 2 {
		t.Fatalf("DNF = %v", dnf)
	}
}

func TestDNFExplosionRejected(t *testing.T) {
	// AND of 5 binary ORs → 32 DNF terms > MaxDNFTerms.
	var ors []*Node
	for i := 0; i < 5; i++ {
		ors = append(ors, Or(Leaf(pred("a", OpEq, int64(i))), Leaf(pred("b", OpEq, int64(i)))))
	}
	if _, err := And(ors...).DNF(); err == nil {
		t.Error("expected DNF explosion error")
	}
}

func TestInclusionExclusionSigns(t *testing.T) {
	n := Or(Leaf(pred("a", OpEq, 1)), Leaf(pred("b", OpEq, 2)))
	terms, err := n.InclusionExclusion()
	if err != nil {
		t.Fatal(err)
	}
	// Three terms: +P(a), +P(b), -P(a∧b).
	if len(terms) != 3 {
		t.Fatalf("terms = %d, want 3", len(terms))
	}
	var sum float64
	for _, tm := range terms {
		sum += tm.Sign
	}
	if sum != 1 {
		t.Errorf("signs sum to %g, want 1 (|A∪B| identity)", sum)
	}
}

// Property: inclusion–exclusion over random boolean trees matches direct
// evaluation when "probability" is computed by brute force over a small
// domain.
func TestQuickInclusionExclusionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	domain := []int64{0, 1, 2, 3, 4}
	randTree := func(depth int) *Node {
		var gen func(d int) *Node
		gen = func(d int) *Node {
			if d == 0 || rng.Intn(3) == 0 {
				return Leaf(pred([]string{"a", "b", "c"}[rng.Intn(3)],
					[]CmpOp{OpEq, OpLt, OpGe, OpNe}[rng.Intn(4)], int64(rng.Intn(5))))
			}
			kids := []*Node{gen(d - 1), gen(d - 1)}
			if rng.Intn(2) == 0 {
				return And(kids...)
			}
			return Or(kids...)
		}
		return gen(depth)
	}
	evalConj := func(preds []Pred, a, b, c int64) bool {
		vals := map[string]int64{"a": a, "b": b, "c": c}
		for _, p := range preds {
			if !p.Eval(types.Int(vals[p.Col])) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 60; trial++ {
		n := randTree(2)
		terms, err := n.InclusionExclusion()
		if err != nil {
			continue // oversize expansion is allowed to be rejected
		}
		var direct, viaIE float64
		for _, a := range domain {
			for _, b := range domain {
				for _, c := range domain {
					get := func(_, col string) types.Datum {
						return types.Int(map[string]int64{"a": a, "b": b, "c": c}[col])
					}
					if n.Eval(get) {
						direct++
					}
					for _, tm := range terms {
						if evalConj(tm.Preds, a, b, c) {
							viaIE += tm.Sign
						}
					}
				}
			}
		}
		if math.Abs(direct-viaIE) > 1e-9 {
			t.Fatalf("tree %s: direct %g vs inclusion-exclusion %g", n, direct, viaIE)
		}
	}
}

func TestNodeString(t *testing.T) {
	n := And(Leaf(pred("a", OpEq, 1)), Or(Leaf(pred("b", OpLt, 2)), Leaf(pred("c", OpGt, 3))))
	want := "t.a = 1 AND (t.b < 2 OR t.c > 3)"
	if n.String() != want {
		t.Errorf("String = %q, want %q", n.String(), want)
	}
	if (*Node)(nil).String() != "TRUE" {
		t.Error("nil node string")
	}
}

func identityEnc(_ string, d types.Datum) (float64, bool) { return d.AsFloat(), true }

func TestBuildConstraintsMergesRanges(t *testing.T) {
	preds := []Pred{
		pred("a", OpGe, 10),
		pred("a", OpLt, 20),
		pred("b", OpEq, 5),
	}
	cs := BuildConstraints(preds, identityEnc)
	if len(cs) != 2 {
		t.Fatalf("constraints = %d, want 2", len(cs))
	}
	a := cs[0]
	if a.Lo != 10 || !a.LoIncl || a.Hi != 20 || a.HiIncl {
		t.Errorf("a constraint = %+v", a)
	}
	if !a.Contains(10) || !a.Contains(19) || a.Contains(20) || a.Contains(9) {
		t.Error("Contains broken for range")
	}
	b := cs[1]
	if !b.HasEq || b.Lo != 5 || b.Hi != 5 {
		t.Errorf("b constraint = %+v", b)
	}
}

func TestBuildConstraintsContradiction(t *testing.T) {
	cs := BuildConstraints([]Pred{pred("a", OpEq, 1), pred("a", OpEq, 2)}, identityEnc)
	if !cs[0].Empty {
		t.Error("a=1 AND a=2 must be empty")
	}
	cs = BuildConstraints([]Pred{pred("a", OpGt, 10), pred("a", OpLt, 5)}, identityEnc)
	if !cs[0].Empty {
		t.Error("a>10 AND a<5 must be empty")
	}
	cs = BuildConstraints([]Pred{pred("a", OpEq, 3), pred("a", OpNe, 3)}, identityEnc)
	if !cs[0].Empty {
		t.Error("a=3 AND a<>3 must be empty")
	}
}

func TestBuildConstraintsNonMemberEquality(t *testing.T) {
	enc := func(_ string, d types.Datum) (float64, bool) { return d.AsFloat(), false }
	cs := BuildConstraints([]Pred{pred("a", OpEq, 7)}, enc)
	if !cs[0].Empty {
		t.Error("equality against a non-member must be empty")
	}
	// <> against a non-member excludes nothing.
	cs = BuildConstraints([]Pred{pred("a", OpNe, 7)}, enc)
	if !cs[0].Unconstrained() {
		t.Error("<> non-member must leave the column unconstrained")
	}
}

// TestClosedPointIsEquality: closed bounds that meet compile to the
// constraint = compiles to, in any order and with duplicates; on a
// non-member point (between codes) both are contradictions.
func TestClosedPointIsEquality(t *testing.T) {
	eq := BuildConstraints([]Pred{pred("a", OpEq, 5)}, identityEnc)[0]
	for _, preds := range [][]Pred{
		{pred("a", OpGe, 5), pred("a", OpLe, 5)},
		{pred("a", OpLe, 5), pred("a", OpGe, 5)},
		{pred("a", OpLe, 7), pred("a", OpGe, 5), pred("a", OpLe, 5)},
		{pred("a", OpEq, 5), pred("a", OpEq, 5)},
		{pred("a", OpGe, 5), pred("a", OpEq, 5), pred("a", OpLe, 5)},
	} {
		if c := BuildConstraints(preds, identityEnc)[0]; !reflect.DeepEqual(c, eq) {
			t.Errorf("%v: %+v, want %+v", preds, c, eq)
		}
	}
	nonMember := func(_ string, d types.Datum) (float64, bool) { return d.AsFloat() - 0.5, false }
	for _, preds := range [][]Pred{
		{pred("a", OpEq, 5)},
		{pred("a", OpGe, 5), pred("a", OpLe, 5)},
	} {
		if c := BuildConstraints(preds, nonMember)[0]; !c.Empty {
			t.Errorf("%v on a non-member: %+v, want a contradiction", preds, c)
		}
	}
	if c := BuildConstraints([]Pred{pred("a", OpGe, 5), pred("a", OpLe, 6)}, nonMember)[0]; c.Empty || c.HasEq {
		t.Errorf("a range between non-members: %+v", c)
	}
}

func TestConstraintNe(t *testing.T) {
	cs := BuildConstraints([]Pred{pred("a", OpNe, 4)}, identityEnc)
	if cs[0].Contains(4) || !cs[0].Contains(5) {
		t.Error("Ne handling broken")
	}
}

func TestConstraintBoundaryTightening(t *testing.T) {
	cs := BuildConstraints([]Pred{pred("a", OpGe, 5), pred("a", OpGt, 5)}, identityEnc)
	if cs[0].LoIncl {
		t.Error("a>=5 AND a>5 must tighten to exclusive bound")
	}
	if cs[0].Contains(5) || !cs[0].Contains(6) {
		t.Error("tightened bound broken")
	}
}

// Property: a value satisfies the compiled constraints iff it satisfies
// every predicate directly.
func TestQuickConstraintsAgreeWithDirectEval(t *testing.T) {
	f := func(rawOps []uint8, rawVals []int8, probe int8) bool {
		n := len(rawOps)
		if n > 6 {
			n = 6
		}
		var preds []Pred
		for i := 0; i < n && i < len(rawVals); i++ {
			preds = append(preds, pred("a", CmpOp(rawOps[i]%6), int64(rawVals[i]%10)))
		}
		cs := BuildConstraints(preds, identityEnc)
		direct := true
		for _, p := range preds {
			if !p.Eval(types.Int(int64(probe))) {
				direct = false
			}
		}
		via := true
		if len(cs) == 1 {
			via = cs[0].Contains(float64(probe))
		}
		return direct == via
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
