package core

import (
	"bytecard/internal/engine"
	"bytecard/internal/factorjoin"
)

// CompileJoin compiles the factor graph a join batch over the universe
// (tables, conds) is sized on, with its count source passed through wrap.
func (e *Estimator) CompileJoin(tables []*engine.QueryTable, conds []engine.JoinCond, wrap func(factorjoin.CountSource) factorjoin.CountSource) (*factorjoin.Graph, error) {
	u := &joinUniverse{tables: tables, conds: conds}
	u.compile(e.Infer.FactorJoin(), wrap(e.keySource(u)), e.JoinMode)
	return u.graph, u.err
}

// SetBNPassHook has f see the table of every BN pass bnKeyPass runs (and
// fail the pass by returning an error), until the returned function
// restores the default.
func SetBNPassHook(f func(table string) error) (restore func()) {
	bnPassHook = f
	return func() { bnPassHook = nil }
}
