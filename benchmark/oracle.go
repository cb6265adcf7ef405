package main

import (
	"fmt"
	"math"

	"bytecard"
	"bytecard/internal/engine"
	"bytecard/internal/types"
)

// checksum fingerprints a query result independent of row order. Every
// non-float cell feeds an exact per-row hash (summed over rows, so order
// drops out). Float cells — AVG/SUM aggregates, whose low bits depend on
// the join order the plan picked — are summed under a per-row, per-column
// weight drawn from that hash and compared with a relative tolerance.
type checksum struct {
	rows  int
	exact uint64
	fsum  float64
	fabs  float64
}

func checksumOf(res *engine.Result) checksum {
	// FNV-1a, inlined: hash/fnv would allocate a hasher per row inside the
	// client loop.
	const offset, prime = 14695981039346656037, 1099511628211
	c := checksum{rows: len(res.Rows)}
	for _, row := range res.Rows {
		rh := uint64(offset)
		for _, d := range row {
			rh = (rh ^ uint64(d.K)) * prime
			switch d.K {
			case types.KindFloat64:
				// weighted below
			case types.KindString:
				for i := 0; i < len(d.S); i++ {
					rh = (rh ^ uint64(d.S[i])) * prime
				}
				rh = (rh ^ 0xff) * prime // terminator: "ab","c" differs from "a","bc"
			default:
				for v := uint64(d.I); v != 0; v >>= 8 {
					rh = (rh ^ (v & 0xff)) * prime
				}
			}
		}
		c.exact += rh
		for j, d := range row {
			if d.K != types.KindFloat64 {
				continue
			}
			// weight in [1, 2): ties the float to its row and column.
			mix := (rh ^ uint64(j+1)*0x9e3779b97f4a7c15) >> 11
			w := 1 + float64(mix)/float64(1<<53)
			c.fsum += d.F * w
			c.fabs += math.Abs(d.F * w)
		}
	}
	return c
}

// floatTolerance is the relative slack on float aggregates: summation order
// moves a double's last few bits, far below this.
const floatTolerance = 1e-9

func (c checksum) matches(ref checksum) bool {
	if c.rows != ref.rows || c.exact != ref.exact {
		return false
	}
	return math.Abs(c.fsum-ref.fsum) <= floatTolerance*math.Max(c.fabs, ref.fabs)
}

// oracle holds what every op's output is checked against: a result
// checksum per op for executed queries, and the row-count product of the
// query's tables as the upper bound of any estimate.
type oracle struct {
	sums  []checksum
	upper []float64
}

// buildOracle computes the reference outputs. Executed queries run once
// each on a reference System over the same dataset that shares no decision
// with the measured one: sketch estimator, no trained models, the legacy
// scan path, the sequential executor and no plan cache.
func buildOracle(e *env, storeDir string) (*oracle, error) {
	o := &oracle{}
	if e.spec.kind != opRun {
		o.upper = make([]float64, len(e.queries))
		for i, q := range e.queries {
			fv, err := e.sys.Featurizer.FeaturizeSQLQuery(q.sql)
			if err != nil {
				return nil, fmt.Errorf("oracle: %q: %w", q.sql, err)
			}
			o.upper[i] = 1
			for _, t := range fv.Query().Tables {
				o.upper[i] *= float64(t.Table.NumRows())
			}
		}
		return o, nil
	}
	ref, err := bytecard.OpenDataset(e.ds, bytecard.Options{
		Dataset: e.spec.dataset, Scale: e.spec.scale, Seed: e.dataSeed, StoreDir: storeDir,
		SkipTraining: true, Estimator: "sketch", Pushdown: -1, Parallelism: 1, PlanCacheBytes: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: open reference system: %w", err)
	}
	o.sums = make([]checksum, len(e.queries))
	seen := map[string]int{}
	for i, q := range e.queries {
		if j, ok := seen[q.sql]; ok {
			o.sums[i] = o.sums[j]
			continue
		}
		seen[q.sql] = i
		res, err := ref.Run(q.sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: reference run %q: %w", q.sql, err)
		}
		o.sums[i] = checksumOf(res)
	}
	return o, nil
}

// checkEstimate rejects an estimate that is not a finite number within
// [0, upper].
func checkEstimate(v, upper float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > upper {
		return fmt.Errorf("estimate %v outside [0, %v]", v, upper)
	}
	return nil
}
