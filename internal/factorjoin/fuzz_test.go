package factorjoin

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode. An input must either fail to
// decode or give a model inference can use: joining the first pairwise
// joint's table to itself on its first column, and a three-instance join
// that projects through the joint, return in both modes without panicking.
// The count source answers every column with its unfiltered bucket counts.
func FuzzDecode(f *testing.F) {
	toy, _ := toyModel(f)
	db, classes := chainDB(f, 3)
	chain, err := Build(db, classes, 20)
	if err != nil {
		f.Fatal(err)
	}
	// Corrupt joints encode fine; Decode must refuse them.
	const pair = "b|a_id|id"
	joint := chain.PairJoint[pair]
	truncated := &Model{BucketsByClass: chain.BucketsByClass, Keys: chain.Keys, PairJoint: map[string][]float64{pair: joint[:len(joint)/2]}}
	for _, m := range []*Model{toy, chain, truncated} {
		data, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		names := sortedKeys(m.PairJoint)
		if len(names) == 0 {
			return
		}
		// Validate admits only "table|colA|colB" names.
		parts := strings.Split(names[0], "|")
		table, a, b := parts[0], parts[1], parts[2]
		src := func(_, table, column string, bounds []float64) ([]float64, error) {
			ks := m.Keys[keyName(table, column)]
			if ks == nil || len(ks.Cnt) != len(bounds)-1 {
				return nil, fmt.Errorf("no counts for %s.%s over %d bounds", table, column, len(bounds))
			}
			return ks.Cnt, nil
		}
		tables := []QueryTable{{Binding: "x", Name: table}, {Binding: "y", Name: table}, {Binding: "z", Name: table}}
		self := []Cond{{LBind: "x", LCol: a, RBind: "y", RCol: a}}
		through := append(self, Cond{LBind: "x", LCol: b, RBind: "z", RCol: b})
		for _, mode := range []Mode{ModeEstimate, ModeBound} {
			_, _ = m.Estimate(tables[:2], self, src, mode)
			_, _ = m.Estimate(tables, through, src, mode)
		}
	})
}
