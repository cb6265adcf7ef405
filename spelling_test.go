package bytecard

import (
	"fmt"
	"math"
	"testing"

	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/spn"
	"bytecard/internal/sqlparse"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// TestEquivalentSpellingsEstimateAlike: filters that analyze to the same
// per-column constraints — an equality against closed bounds that meet, a
// duplicated predicate, the predicates in another order — get
// Float64bits-equal estimates from the ByteCard estimator (BN, FactorJoin,
// RBX), the sketch and sample baselines, and a per-table SPN.
func TestEquivalentSpellingsEstimateAlike(t *testing.T) {
	sys := fastpathSystem(t, "stats")
	users := sys.Dataset.DB.Table("users")
	rep := users.ColByName("reputation").Value(17).I
	year := users.ColByName("creation_year").Value(5).I
	usersSPN := trainTableSPN(t, users)
	for _, c := range []struct {
		form      string // one %s: the users filter
		spellings []string
	}{
		{
			"SELECT COUNT(*) FROM users u WHERE %s",
			[]string{
				fmt.Sprintf("u.reputation = %d", rep),
				fmt.Sprintf("u.reputation >= %d AND u.reputation <= %d", rep, rep),
				fmt.Sprintf("u.reputation <= %d AND u.reputation >= %d", rep, rep),
				fmt.Sprintf("u.reputation = %d AND u.reputation = %d", rep, rep),
			},
		},
		{
			"SELECT COUNT(*) FROM posts p, users u WHERE p.owner_user_id = u.id AND %s",
			[]string{
				fmt.Sprintf("u.reputation = %d AND u.creation_year > %d", rep, year),
				fmt.Sprintf("u.creation_year > %d AND u.reputation >= %d AND u.reputation <= %d", year, rep, rep),
				fmt.Sprintf("u.reputation <= %d AND u.creation_year > %d AND u.creation_year > %d AND u.reputation >= %d", rep, year, year, rep),
			},
		},
		{
			"SELECT u.creation_year, COUNT(*) FROM users u WHERE %s GROUP BY u.creation_year",
			[]string{
				fmt.Sprintf("u.reputation = %d", rep),
				fmt.Sprintf("u.reputation >= %d AND u.reputation <= %d", rep, rep),
			},
		},
	} {
		var want []uint64
		for _, s := range c.spellings {
			sql := fmt.Sprintf(c.form, s)
			got := spellingEstimates(t, sys, usersSPN, sql)
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: estimate %d is %v; %q gives %v", sql, i, math.Float64frombits(got[i]), c.spellings[0], math.Float64frombits(want[i]))
				}
			}
		}
	}
}

// spellingEstimates returns the bits of every estimate of sql: each
// estimator's filter estimate per table, join estimate and group NDV, the
// users SPN's filter estimate, and System.Estimate's answer.
func spellingEstimates(t *testing.T, sys *System, usersSPN *spn.Model, sql string) []uint64 {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Engine.Analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	add := func(v float64) { out = append(out, math.Float64bits(v)) }
	for _, est := range []engine.CardEstimator{sys.Estimator, sys.Sketch, sys.Sample} {
		for _, qt := range q.Tables {
			add(est.EstimateFilter(qt))
		}
		if len(q.Tables) > 1 {
			add(est.EstimateJoin(q.Tables, q.Joins))
		}
		if len(q.GroupBy) > 0 {
			add(est.EstimateGroupNDV(q))
		}
	}
	for _, qt := range q.Tables {
		if qt.Name != "users" {
			continue
		}
		preds, _ := qt.Filter.Conjunction()
		cons := expr.BuildConstraints(preds, func(col string, d types.Datum) (float64, bool) {
			return qt.Table.ColByName(col).EncodeDatum(d)
		})
		v, err := usersSPN.EstimateRows(cons)
		if err != nil {
			t.Fatal(err)
		}
		add(v)
	}
	kind := EstimateRows
	if len(q.GroupBy) > 0 {
		kind = EstimateDistinct
	}
	r, err := sys.Estimate(sql, EstimateOpts{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	add(r.Value)
	return out
}

// trainTableSPN trains an SPN over every row of t.
func trainTableSPN(t *testing.T, tab *storage.Table) *spn.Model {
	t.Helper()
	data := make([][]float64, tab.NumRows())
	for i := range data {
		data[i] = make([]float64, tab.NumCols())
		for j := range data[i] {
			data[i][j] = tab.Col(j).Numeric(i)
		}
	}
	m, err := spn.Train(tab.ColumnNames(), data, spn.TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
