// Package expr represents filter predicates: leaf comparisons against
// literals, boolean AND/OR trees over them, DNF expansion, the
// inclusion–exclusion transformation ByteCard applies to OR-ed queries
// before estimating (the paper's models natively handle AND-ed
// conjunctions), and per-column constraint compilation used by every
// estimator.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bytecard/internal/types"
)

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Apply evaluates the operator given a three-way comparison result
// (as returned by types.Datum.Compare).
func (op CmpOp) Apply(cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		panic("expr: unknown operator")
	}
}

// Pred is a leaf predicate: <table>.<column> <op> <literal>.
type Pred struct {
	Table string
	Col   string
	Op    CmpOp
	Val   types.Datum
}

// Eval applies the predicate to a cell value.
func (p Pred) Eval(v types.Datum) bool { return p.Op.Apply(v.Compare(p.Val)) }

// String renders the predicate in SQL form.
func (p Pred) String() string {
	name := p.Col
	if p.Table != "" {
		name = p.Table + "." + p.Col
	}
	return fmt.Sprintf("%s %s %s", name, p.Op, p.Val)
}

// NodeKind discriminates boolean-tree nodes.
type NodeKind int

// Boolean-tree node kinds.
const (
	KindLeaf NodeKind = iota
	KindAnd
	KindOr
)

// Node is a boolean expression tree. Leaves hold a Pred; interior nodes
// hold two or more children.
type Node struct {
	Kind     NodeKind
	Pred     Pred
	Children []*Node
}

// Leaf wraps a predicate.
func Leaf(p Pred) *Node { return &Node{Kind: KindLeaf, Pred: p} }

// And conjoins nodes, flattening nested ANDs. And() returns nil (true).
func And(children ...*Node) *Node { return combine(KindAnd, children) }

// Or disjoins nodes, flattening nested ORs.
func Or(children ...*Node) *Node { return combine(KindOr, children) }

func combine(kind NodeKind, children []*Node) *Node {
	var flat []*Node
	for _, c := range children {
		if c == nil {
			continue
		}
		if c.Kind == kind {
			flat = append(flat, c.Children...)
		} else {
			flat = append(flat, c)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	default:
		return &Node{Kind: kind, Children: flat}
	}
}

// Eval evaluates the tree given a cell lookup. A nil node is true.
func (n *Node) Eval(get func(table, col string) types.Datum) bool {
	if n == nil {
		return true
	}
	switch n.Kind {
	case KindLeaf:
		return n.Pred.Eval(get(n.Pred.Table, n.Pred.Col))
	case KindAnd:
		for _, c := range n.Children {
			if !c.Eval(get) {
				return false
			}
		}
		return true
	case KindOr:
		for _, c := range n.Children {
			if c.Eval(get) {
				return true
			}
		}
		return false
	default:
		panic("expr: unknown node kind")
	}
}

// Leaves returns every leaf predicate in the tree.
func (n *Node) Leaves() []Pred {
	var out []Pred
	n.walk(func(p Pred) { out = append(out, p) })
	return out
}

func (n *Node) walk(f func(Pred)) {
	if n == nil {
		return
	}
	if n.Kind == KindLeaf {
		f(n.Pred)
		return
	}
	for _, c := range n.Children {
		c.walk(f)
	}
}

// Tables returns the sorted set of table names referenced by the tree.
func (n *Node) Tables() []string {
	seen := map[string]bool{}
	n.walk(func(p Pred) { seen[p.Table] = true })
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Conjunction returns the leaf predicates if the tree is a pure AND of
// leaves (or a single leaf, or nil), and ok=false otherwise.
func (n *Node) Conjunction() (preds []Pred, ok bool) {
	if n == nil {
		return nil, true
	}
	if n.Kind == KindLeaf {
		return []Pred{n.Pred}, true
	}
	if n.Kind != KindAnd {
		return nil, false
	}
	for _, c := range n.Children {
		if c.Kind != KindLeaf {
			return nil, false
		}
		preds = append(preds, c.Pred)
	}
	return preds, true
}

// MaxDNFTerms bounds DNF expansion; queries with wider OR fan-out are
// rejected rather than silently exploding.
const MaxDNFTerms = 16

// DNF expands the tree into disjunctive normal form: a list of
// conjunctions, each a list of leaf predicates.
func (n *Node) DNF() ([][]Pred, error) {
	if n == nil {
		return [][]Pred{nil}, nil
	}
	switch n.Kind {
	case KindLeaf:
		return [][]Pred{{n.Pred}}, nil
	case KindOr:
		var out [][]Pred
		for _, c := range n.Children {
			sub, err := c.DNF()
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			if len(out) > MaxDNFTerms {
				return nil, fmt.Errorf("expr: DNF exceeds %d terms", MaxDNFTerms)
			}
		}
		return out, nil
	case KindAnd:
		out := [][]Pred{nil}
		for _, c := range n.Children {
			sub, err := c.DNF()
			if err != nil {
				return nil, err
			}
			var next [][]Pred
			for _, a := range out {
				for _, b := range sub {
					term := make([]Pred, 0, len(a)+len(b))
					term = append(term, a...)
					term = append(term, b...)
					next = append(next, term)
				}
			}
			if len(next) > MaxDNFTerms {
				return nil, fmt.Errorf("expr: DNF exceeds %d terms", MaxDNFTerms)
			}
			out = next
		}
		return out, nil
	default:
		panic("expr: unknown node kind")
	}
}

// IETerm is one signed conjunction of the inclusion–exclusion expansion:
// P(D1 ∨ … ∨ Dk) = Σ_{∅≠S⊆{1..k}} (-1)^(|S|+1) P(∧_{i∈S} Di).
type IETerm struct {
	Sign  float64
	Preds []Pred
}

// MaxIEDisjuncts bounds the number of DNF disjuncts accepted by
// InclusionExclusion (the expansion has 2^k-1 terms).
const MaxIEDisjuncts = 6

// InclusionExclusion expands the tree into signed conjunctions whose signed
// probabilities sum to the probability of the whole tree. This is the
// transformation ByteCard applies so that conjunctive-only models (the
// Bayesian network) can estimate OR-ed filters.
func (n *Node) InclusionExclusion() ([]IETerm, error) {
	dnf, err := n.DNF()
	if err != nil {
		return nil, err
	}
	if len(dnf) == 1 {
		return []IETerm{{Sign: 1, Preds: dnf[0]}}, nil
	}
	if len(dnf) > MaxIEDisjuncts {
		return nil, fmt.Errorf("expr: inclusion-exclusion over %d disjuncts exceeds %d", len(dnf), MaxIEDisjuncts)
	}
	var out []IETerm
	for mask := 1; mask < 1<<len(dnf); mask++ {
		var preds []Pred
		bits := 0
		for i, term := range dnf {
			if mask&(1<<i) != 0 {
				bits++
				preds = append(preds, term...)
			}
		}
		sign := 1.0
		if bits%2 == 0 {
			sign = -1
		}
		out = append(out, IETerm{Sign: sign, Preds: preds})
	}
	return out, nil
}

// String renders the tree in SQL form.
func (n *Node) String() string {
	if n == nil {
		return "TRUE"
	}
	switch n.Kind {
	case KindLeaf:
		return n.Pred.String()
	case KindAnd, KindOr:
		op := " AND "
		if n.Kind == KindOr {
			op = " OR "
		}
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			if c.Kind == KindLeaf {
				parts[i] = c.String()
			} else {
				parts[i] = "(" + c.String() + ")"
			}
		}
		return strings.Join(parts, op)
	default:
		panic("expr: unknown node kind")
	}
}

// Encoder converts a literal for a named column to the column's numeric
// image. The boolean reports whether the literal is an exact domain member
// (false e.g. for a string absent from the dictionary).
type Encoder func(col string, d types.Datum) (float64, bool)

// Constraint is the compiled form of all conjunctive predicates on one
// column: an interval, optional exact-equality emptiness, and a list of
// excluded points.
type Constraint struct {
	Col    string
	Lo, Hi float64 // closed bounds after normalization
	LoIncl bool
	HiIncl bool
	// Empty marks a contradiction (e.g. a = 1 AND a = 2).
	Empty bool
	// HasEq reports whether an equality pinned the column to Lo (== Hi).
	HasEq bool
	// Ne lists excluded points from <> predicates.
	Ne []float64
}

// NewConstraint returns the unconstrained interval for col.
func NewConstraint(col string) Constraint {
	return Constraint{Col: col, Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true}
}

// Add tightens the constraint with one predicate (which must be on the same
// column). exact reports whether the encoded literal was a domain member.
func (c *Constraint) Add(op CmpOp, v float64, exact bool) {
	if c.Empty {
		return
	}
	switch op {
	case OpEq:
		if !exact {
			c.Empty = true
			return
		}
		c.tightenLo(v, true)
		c.tightenHi(v, true)
		if !c.Empty {
			c.HasEq = true
		}
	case OpNe:
		if exact {
			c.Ne = append(c.Ne, v)
		}
	case OpLt:
		c.tightenHi(v, false)
	case OpLe:
		c.tightenHi(v, true)
	case OpGt:
		c.tightenLo(v, false)
	case OpGe:
		c.tightenLo(v, true)
	}
	c.check()
}

func (c *Constraint) tightenLo(v float64, incl bool) {
	if v > c.Lo || (v == c.Lo && !incl && c.LoIncl) {
		c.Lo, c.LoIncl = v, incl
	}
}

func (c *Constraint) tightenHi(v float64, incl bool) {
	if v < c.Hi || (v == c.Hi && !incl && c.HiIncl) {
		c.Hi, c.HiIncl = v, incl
	}
}

func (c *Constraint) check() {
	if c.Lo > c.Hi || (c.Lo == c.Hi && !(c.LoIncl && c.HiIncl)) {
		c.Empty = true
	}
	if c.HasEq {
		for _, ne := range c.Ne {
			if ne == c.Lo {
				c.Empty = true
			}
		}
	}
}

// Unconstrained reports whether the constraint admits all values.
func (c Constraint) Unconstrained() bool {
	return !c.Empty && math.IsInf(c.Lo, -1) && math.IsInf(c.Hi, 1) && len(c.Ne) == 0
}

// Contains reports whether value v satisfies the constraint.
func (c Constraint) Contains(v float64) bool {
	if c.Empty {
		return false
	}
	if v < c.Lo || (v == c.Lo && !c.LoIncl) {
		return false
	}
	if v > c.Hi || (v == c.Hi && !c.HiIncl) {
		return false
	}
	for _, ne := range c.Ne {
		if v == ne {
			return false
		}
	}
	return true
}

// BuildConstraints compiles a conjunction into per-column constraints,
// ordered by first appearance. Predicates on the same column are merged.
func BuildConstraints(preds []Pred, enc Encoder) []Constraint {
	idx := map[string]int{}
	var out []Constraint
	for _, p := range preds {
		i, ok := idx[p.Col]
		if !ok {
			i = len(out)
			idx[p.Col] = i
			out = append(out, NewConstraint(p.Col))
		}
		v, exact := enc(p.Col, p.Val)
		// A <> on a non-member string excludes nothing; handled by
		// exact=false inside Add. Range ops with half-codes stay correct
		// because the encoder places missing strings between codes.
		out[i].Add(p.Op, v, exact)
	}
	return out
}
