// Quickstart: open a ByteCard system over the IMDB-like dataset, run SQL
// through the learned-estimator-driven optimizer, and compare ByteCard's
// cardinality estimates against ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bytecard"
)

func main() {
	fmt.Println("Training ByteCard over the IMDB-like dataset (a few seconds)...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "imdb",
		Scale:   0.02,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Loaded %d tables (%d rows); trained %d model artifacts.\n\n",
		len(sys.Dataset.DB.TableNames()), sys.Dataset.DB.TotalRows(), len(sys.TrainReport.Models))

	// 1. Execute a query end to end.
	sql := "SELECT COUNT(*) FROM title WHERE production_year >= 2005 AND kind_id = 2"
	res, err := sys.Run(sql)
	if err != nil {
		log.Fatal(err)
	}
	count, _ := res.ScalarInt()
	fmt.Printf("Q: %s\n   -> %d rows (plan %v, exec %v, reader %v)\n\n",
		sql, count, res.Metrics.PlanDuration.Round(1000), res.Metrics.ExecDuration.Round(1000),
		res.Metrics.ReaderStrategy)

	// 2. Cardinality estimation without execution — the correlated
	// predicate (TV series skew recent) is where the Bayesian network
	// shines over independence assumptions.
	est, err := sys.EstimateCount(sql)
	if err != nil {
		log.Fatal(err)
	}
	truth, _ := sys.TrueCount(sql)
	fmt.Printf("ByteCard estimate: %.0f   truth: %.0f   q-error: %.2f\n\n", est, truth, qerr(est, truth))

	// 3. Join-size estimation through FactorJoin.
	join := "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id AND t.production_year > 2010"
	est, err = sys.EstimateCount(join)
	if err != nil {
		log.Fatal(err)
	}
	truth, _ = sys.TrueCount(join)
	fmt.Printf("Join estimate:     %.0f   truth: %.0f   q-error: %.2f\n\n", est, truth, qerr(est, truth))

	// 4. NDV estimation through RBX.
	ndvSQL := "SELECT COUNT(DISTINCT cast_info.person_id) FROM cast_info WHERE cast_info.role_id = 1"
	est, err = sys.EstimateNDV(ndvSQL)
	if err != nil {
		log.Fatal(err)
	}
	res, _ = sys.Run(ndvSQL)
	ndvTruth, _ := res.ScalarInt()
	fmt.Printf("NDV estimate:      %.0f   truth: %d   q-error: %.2f\n", est, ndvTruth, qerr(est, float64(ndvTruth)))
}

func qerr(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}
