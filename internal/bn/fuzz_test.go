package bn_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bytecard/internal/bn"
	"bytecard/internal/core"
	"bytecard/internal/expr"
)

// FuzzDecode feeds arbitrary bytes to the BN wire format: they must either
// fail Decode or give a model the inference registry installs, whose
// selectivity for a point, a range and a two-column conjunction over its
// own boundary values is a probability, without panicking.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	cols := [][]float64{make([]float64, 400), make([]float64, 400), make([]float64, 400)}
	for r := range cols[0] {
		cols[0][r] = float64(rng.Intn(4))
		cols[1][r] = cols[0][r] + float64(rng.Intn(2))
		cols[2][r] = rng.NormFloat64() * 10
	}
	m, err := bn.Train(bn.TrainConfig{Table: "t", ColNames: []string{"a", "b", "c"}, Sample: cols, Laplace: 0.1})
	if err != nil {
		f.Fatal(err)
	}
	// Corrupt discretizers encode fine; Decode must refuse them.
	short, descending := *m, *m
	short.Cols, descending.Cols = slices.Clone(m.Cols), slices.Clone(m.Cols)
	short.Cols[2].BinNDV = short.Cols[2].BinNDV[:1]
	descending.Cols[2].Bounds = slices.Clone(m.Cols[2].Bounds)
	slices.Reverse(descending.Cols[2].Bounds)
	for _, m := range []*bn.Model{m, &short, &descending} {
		data, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := bn.Decode(data)
		if err != nil {
			return
		}
		infer := core.NewInferenceEngine(core.Options{})
		if err := infer.LoadModel(core.Artifact{Name: "t", Kind: core.KindBN, Table: "t", Timestamp: time.Unix(1, 0), Data: data}); err != nil {
			t.Fatalf("Decode accepted a model LoadModel rejects: %v", err)
		}
		ctxs, ok := infer.Models().BN("t")
		if !ok || len(ctxs) != 1 {
			t.Fatalf("installed model serves %d contexts (ok=%v)", len(ctxs), ok)
		}
		var prev expr.Constraint
		for i, col := range m.Cols[:min(len(m.Cols), 4)] {
			points := col.Bounds
			if col.Categorical {
				points = col.Values
			}
			if len(points) == 0 {
				continue
			}
			for _, v := range []float64{points[0], points[len(points)/2], points[len(points)-1]} {
				for _, op := range []expr.CmpOp{expr.OpEq, expr.OpLe, expr.OpGe, expr.OpNe} {
					c := expr.NewConstraint(col.Name)
					c.Add(op, v, true)
					conj := []expr.Constraint{c}
					if i > 0 {
						conj = append(conj, prev)
					}
					for _, cs := range [][]expr.Constraint{conj[:1], conj} {
						sel, err := ctxs[0].SelectivityConj(cs)
						// The health check admits each distribution within
						// 1e-6 of one, so a product over a few columns may
						// pass one by as much (the checked-in seed does).
						if err == nil && !(sel >= 0 && sel <= 1+1e-5) {
							t.Fatalf("selectivity of %+v = %v, not a probability", cs, sel)
						}
					}
					prev = c
				}
			}
		}
	})
}
