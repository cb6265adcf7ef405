// Package monitor implements the Model Monitor: it generates probe queries
// with multiple predicates, executes them on the warehouse for true
// cardinalities, compares against the models' estimates, and — when
// Q-errors breach the threshold — disables the offending model (falling
// back to traditional estimation) and triggers retraining or RBX
// fine-tuning in the ModelForge service. Per the paper, only single-table
// COUNT models are probed directly; FactorJoin inherits its health from
// the single-table models it consumes.
package monitor

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"bytecard/internal/cardinal"
	"bytecard/internal/core"
	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/residual"
	"bytecard/internal/sample"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// Monitor checks model quality against live query results.
type Monitor struct {
	// Exec executes probe queries for ground truth.
	Exec *engine.Engine
	// Est is the ByteCard estimator under evaluation.
	Est *core.Estimator
	// Feat featurizes probe SQL.
	Feat *core.Featurizer
	// Infer is the registry whose models get disabled on breach.
	Infer *core.InferenceEngine

	// Threshold is the maximum tolerated probe Q-error (default 100).
	Threshold float64
	// Probes is the number of probe queries per check (default 20).
	Probes int
	// Seed drives probe generation.
	Seed int64

	// RetrainTable is called when a table's COUNT model breaches (wired
	// to ModelForge.TrainTable).
	RetrainTable func(table string) error
	// FineTuneNDV is called with calibration evidence when RBX breaches
	// on a column (wired to ModelForge.FineTuneRBX).
	FineTuneNDV func(column string, profiles []sample.Profile, truths []float64) error

	// Residual, when non-nil, is the online residual corrector whose
	// rolling-q-error drift signal the Monitor turns into refits (see
	// CheckResidualDrift).
	Residual *residual.Corrector
}

// probeSeed derives a per-name probe RNG seed by folding an FNV-1a hash
// of the name into the Monitor's base seed. Deriving from len(name) (the
// old scheme) gave any two equal-length names an identical RNG stream, so
// their probe predicates were perfectly correlated and probe coverage
// silently collapsed; the hash gives every distinct name its own stream
// while staying deterministic for a fixed (Seed, name).
func probeSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64())
}

// CheckResidualDrift asks the residual corrector whether its rolling
// recent q-error has pulled away from the baseline and, if so, triggers a
// refit (bucket confidence halved so the corrector re-learns the shifted
// distribution quickly). Reports whether a refit ran; a Monitor without a
// corrector reports false.
func (m *Monitor) CheckResidualDrift() bool {
	if m.Residual == nil || !m.Residual.Drifted() {
		return false
	}
	m.Residual.Refit()
	return true
}

func (m *Monitor) threshold() float64 {
	if m.Threshold > 0 {
		return m.Threshold
	}
	return 100
}

func (m *Monitor) probes() int {
	if m.Probes > 0 {
		return m.Probes
	}
	return 20
}

// observeQError feeds one probe q-error into the estimator's shared
// q-error histogram, making Monitor sweeps visible in System.Metrics.
func (m *Monitor) observeQError(q float64) {
	if m.Est != nil && m.Est.Metrics != nil {
		m.Est.Metrics.QError.Observe(q)
	}
}

// TableReport summarizes one COUNT-model check.
type TableReport struct {
	Table    string
	QErrors  []float64
	Worst    float64
	Breached bool
	// Err records why this table's check could not complete (CheckAll
	// keeps sweeping the remaining tables).
	Err error
}

// probePreds draws 1..3 random predicates over a table's scalar columns
// with literals sampled from actual rows (so probes hit populated regions).
func probePreds(t *engineTable, rng *rand.Rand) []expr.Pred {
	n := 1 + rng.Intn(3)
	var preds []expr.Pred
	for i := 0; i < n; i++ {
		col := t.cols[rng.Intn(len(t.cols))]
		row := rng.Intn(t.tab.NumRows())
		val := t.tab.ColByName(col).Value(row)
		var op expr.CmpOp
		if val.K == types.KindString {
			op = expr.OpEq
		} else {
			op = []expr.CmpOp{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[rng.Intn(5)]
		}
		preds = append(preds, expr.Pred{Table: t.name, Col: col, Op: op, Val: val})
	}
	return preds
}

type engineTable struct {
	name string
	tab  *storage.Table
	cols []string
}

// buildEngineTable adapts a storage table for probe generation, keeping
// only scalar columns.
func (m *Monitor) buildEngineTable(table string) (*engineTable, error) {
	t := m.Exec.DB.Table(table)
	if t == nil {
		return nil, fmt.Errorf("monitor: unknown table %q", table)
	}
	et := &engineTable{name: table, tab: t}
	for i := 0; i < t.NumCols(); i++ {
		if t.Col(i).Kind().Scalar() {
			et.cols = append(et.cols, t.Col(i).Name())
		}
	}
	if len(et.cols) == 0 {
		return nil, fmt.Errorf("monitor: table %q has no scalar columns", table)
	}
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("monitor: table %q is empty", table)
	}
	return et, nil
}

// predsToSQL renders probe predicates as a COUNT query.
func predsToSQL(table string, preds []expr.Pred, distinctCols []string) string {
	sql := "SELECT COUNT(*)"
	if len(distinctCols) > 0 {
		sql = "SELECT COUNT(DISTINCT "
		for i, c := range distinctCols {
			if i > 0 {
				sql += ", "
			}
			sql += table + "." + c
		}
		sql += ")"
	}
	sql += " FROM " + table
	for i, p := range preds {
		if i == 0 {
			sql += " WHERE "
		} else {
			sql += " AND "
		}
		sql += p.String()
	}
	return sql
}

// CheckTable probes one table's COUNT model. On breach the model is
// disabled and retraining is triggered.
func (m *Monitor) CheckTable(table string) (TableReport, error) {
	et, err := m.buildEngineTable(table)
	if err != nil {
		return TableReport{}, err
	}
	rng := rand.New(rand.NewSource(probeSeed(m.Seed, table)))
	rep := TableReport{Table: table}
	for i := 0; i < m.probes(); i++ {
		preds := probePreds(et, rng)
		sql := predsToSQL(table, preds, nil)
		truth, err := m.Exec.TrueCardinality(sql)
		if err != nil {
			return rep, fmt.Errorf("monitor: probe %q: %w", sql, err)
		}
		fv, err := m.Feat.FeaturizeSQLQuery(sql)
		if err != nil {
			return rep, err
		}
		est, err := m.Est.Estimate(fv)
		if err != nil {
			// A model that cannot even estimate is unhealthy.
			rep.Breached = true
			break
		}
		q := cardinal.QError(est, truth)
		m.observeQError(q)
		rep.QErrors = append(rep.QErrors, q)
		if q > rep.Worst {
			rep.Worst = q
		}
	}
	if rep.Worst > m.threshold() {
		rep.Breached = true
	}
	if rep.Breached {
		m.Infer.Admin().Disable("bn:" + table)
		if m.RetrainTable != nil {
			if err := m.RetrainTable(table); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// CheckAll probes every table's single-table COUNT model. One table's
// probe failure must not leave the rest of the fleet unmonitored: the
// sweep continues past errors, records each in its table's report, and
// returns them joined. When a residual corrector is wired, the sweep also
// checks its rolling-q-error drift signal and refits on breach.
func (m *Monitor) CheckAll() ([]TableReport, error) {
	m.CheckResidualDrift()
	var out []TableReport
	var errs []error
	// Sweep in name order, not insertion order, so reports (and the joined
	// error) are stable across runs regardless of how the catalog was built.
	tables := m.Exec.DB.TableNames()
	sort.Strings(tables)
	for _, table := range tables {
		rep, err := m.CheckTable(table)
		if err != nil {
			rep.Table = table
			rep.Err = err
			errs = append(errs, fmt.Errorf("monitor: table %s: %w", table, err))
		}
		out = append(out, rep)
	}
	return out, errors.Join(errs...)
}

// NDVReport summarizes one COUNT-DISTINCT check.
type NDVReport struct {
	Table, Column string
	QErrors       []float64
	Worst         float64
	Breached      bool
}

// CheckNDV probes RBX on one column (optionally under random filters). On
// breach the column is disabled for RBX and the calibration protocol is
// triggered with the collected (profile, truth) evidence.
func (m *Monitor) CheckNDV(table, column string) (NDVReport, error) {
	et, err := m.buildEngineTable(table)
	if err != nil {
		return NDVReport{}, err
	}
	rng := rand.New(rand.NewSource(probeSeed(m.Seed, table+"\x00"+column)))
	rep := NDVReport{Table: table, Column: column}
	key := table + "." + column
	frame := m.Est.Samples[table]
	var profiles []sample.Profile
	var truths []float64
	for i := 0; i < m.probes(); i++ {
		var preds []expr.Pred
		if i > 0 { // first probe is unfiltered
			preds = probePreds(et, rng)[:1]
		}
		sql := predsToSQL(table, preds, []string{column})
		res, err := m.Exec.Run(sql)
		if err != nil {
			return rep, fmt.Errorf("monitor: probe %q: %w", sql, err)
		}
		truth, err := res.ScalarInt()
		if err != nil {
			return rep, err
		}
		fv, err := m.Feat.FeaturizeSQLQuery(sql)
		if err != nil {
			return rep, err
		}
		est, err := m.Est.EstimateNDV(fv)
		if err != nil {
			rep.Breached = true
			break
		}
		q := cardinal.QError(est, float64(truth))
		m.observeQError(q)
		rep.QErrors = append(rep.QErrors, q)
		if q > rep.Worst {
			rep.Worst = q
		}
		if frame != nil {
			var filter *expr.Node
			if len(preds) > 0 {
				filter = expr.Leaf(preds[0])
			}
			p, err := frame.ProfileOf(filter, column)
			if err != nil {
				return rep, fmt.Errorf("monitor: profile %s: %w", key, err)
			}
			if p.SampleRows > 0 {
				profiles = append(profiles, p)
				truths = append(truths, float64(truth))
			}
		}
	}
	if rep.Worst > m.threshold() {
		rep.Breached = true
	}
	if rep.Breached {
		m.Infer.Admin().Disable("rbx:" + key)
		if m.FineTuneNDV != nil && len(profiles) > 0 {
			if err := m.FineTuneNDV(key, profiles, truths); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// RevalidateNDV re-probes a disabled column and re-enables RBX for it when
// the calibrated parameters pass — the paper's "only integrate once the
// Model Monitor has validated the new parameters".
func (m *Monitor) RevalidateNDV(table, column string) (NDVReport, error) {
	key := table + "." + column
	m.Infer.Admin().Enable("rbx:" + key) // probe with the new parameters
	rep, err := m.CheckNDV(table, column)
	if err != nil {
		m.Infer.Admin().Disable("rbx:" + key)
		return rep, err
	}
	if rep.Breached {
		m.Infer.Admin().Disable("rbx:" + key)
	}
	return rep, nil
}
