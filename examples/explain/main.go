// Explain: open a ByteCard system, EXPLAIN a join query to see per-node
// cardinality estimates with the model that produced each one, inspect a
// fully traced estimate, and dump the system-wide metrics snapshot.
//
//	go run ./examples/explain
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"bytecard"
)

func main() {
	fmt.Println("Training ByteCard over the toy dataset...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "toy",
		Scale:   2,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. EXPLAIN: the chosen plan, each node annotated with its estimate
	// and the estimator source (bn / factorjoin / rbx / sketch fallback).
	sql := "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3 GROUP BY d.cat"
	res, err := sys.Explain(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEXPLAIN %s\n%s", sql, res)

	// 2. The trace behind the plan: every estimation step planning took.
	fmt.Println("\nPlanning trace:")
	for _, s := range res.Trace {
		fmt.Println("  " + s.String())
	}

	// 3. A detailed point estimate: value plus provenance.
	d, err := sys.Estimate("SELECT COUNT(*) FROM fact WHERE val < 50", bytecard.EstimateOpts{Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEstimate: value=%.1f source=%s fallback=%v (%d spans)\n",
		d.Value, d.Source, d.Fallback, d.Trace.Len())

	// 4. The system-wide metrics snapshot (what ExpvarFunc publishes).
	b, err := json.MarshalIndent(sys.Metrics(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMetrics:\n%s\n", b)
}
