// Joinorder: demonstrates how estimation quality changes join-order
// selection. The same multi-join query is planned with the heuristic
// estimator, the traditional sketch estimator, and ByteCard's FactorJoin,
// and the resulting join orders, intermediate sizes, and latencies are
// compared.
//
//	go run ./examples/joinorder
package main

import (
	"fmt"
	"log"
	"strings"

	"bytecard"
	"bytecard/internal/engine"
	"bytecard/internal/sqlparse"
)

func main() {
	fmt.Println("Training ByteCard over the STATS-like dataset...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "stats",
		Scale:   0.1,
		Seed:    4,
	})
	if err != nil {
		log.Fatal(err)
	}

	sql := `SELECT COUNT(*) FROM users, posts, comments, badges
	        WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id
	          AND badges.user_id = users.id
	          AND users.reputation >= 2000 AND posts.score >= 5`
	fmt.Printf("\nQ: %s\n\n", strings.Join(strings.Fields(sql), " "))

	for _, method := range []string{"heuristic", "sketch", "bytecard"} {
		var est engine.CardEstimator
		switch method {
		case "heuristic":
			est = engine.HeuristicEstimator{}
		case "sketch":
			est = sys.Sketch
		default:
			est = sys.Estimator
		}
		exec := engine.New(sys.Dataset.DB, sys.Dataset.Schema, est)
		stmt := sqlparse.MustParse(sql)
		q, err := exec.Analyze(stmt)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := exec.Plan(q)
		if err != nil {
			log.Fatal(err)
		}
		var order []string
		for _, idx := range plan.JoinOrder {
			order = append(order, q.Tables[idx].Binding)
		}
		res, err := exec.Execute(plan)
		if err != nil {
			log.Fatal(err)
		}
		count, _ := res.ScalarInt()
		fmt.Printf("%-10s order: %-38s est-final=%10.0f  tuples-materialized=%8d  exec=%v  (result %d)\n",
			method, strings.Join(order, " -> "), plan.EstFinalRows,
			res.Metrics.RowsMaterialized, res.Metrics.ExecDuration.Round(1000), count)
	}

	fmt.Println("\nBetter join-size estimates steer the DP optimizer toward orders with")
	fmt.Println("smaller intermediates — less materialization, less CPU, lower latency.")
}
