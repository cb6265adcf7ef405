// Materialization: demonstrates how ByteCard's selectivity estimates drive
// the engine's reader choice — the multi-stage reader (staged, late
// materialization) for selective conjunctions versus the single-stage
// reader for non-selective ones — and measures the block I/O difference,
// the mechanism behind the paper's Figure 6a.
//
//	go run ./examples/materialization
package main

import (
	"fmt"
	"log"

	"bytecard"
)

func main() {
	fmt.Println("Training ByteCard over the STATS-like dataset...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "stats",
		Scale:   0.3, // enough rows for multi-block columns
		Seed:    2,
	})
	if err != nil {
		log.Fatal(err)
	}

	queries := []struct {
		label string
		sql   string
	}{
		// creation_year is time-clustered in storage (append-only
		// ingestion), so the staged reader can skip whole blocks of the
		// later columns once the year predicate prunes.
		{"selective conjunction", "SELECT COUNT(*) FROM posts WHERE creation_year >= 2014 AND score >= 20 AND view_count >= 1500"},
		{"non-selective filter", "SELECT COUNT(*) FROM posts WHERE score >= -2 AND view_count >= 1"},
	}
	for _, q := range queries {
		res, err := sys.Run(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		count, _ := res.ScalarInt()
		fmt.Printf("\n%s:\n  %s\n  -> %d rows, strategy=%s, %d blocks read\n",
			q.label, q.sql, count, res.Metrics.ReaderStrategy["posts"], res.Metrics.IO.BlocksRead())

		// Force the opposite strategy to show the I/O delta.
		forced := "single-stage"
		if res.Metrics.ReaderStrategy["posts"] == "single-stage" {
			forced = "multi-stage"
		}
		sys.Engine.ForceReader = forced
		alt, err := sys.Run(q.sql)
		sys.Engine.ForceReader = ""
		if err != nil {
			// multi-stage requires conjunctive filters; skip politely.
			fmt.Printf("  (forced %s unavailable: %v)\n", forced, err)
			continue
		}
		altCount, _ := alt.ScalarInt()
		if altCount != count {
			log.Fatalf("strategies disagree: %d vs %d", count, altCount)
		}
		fmt.Printf("  forced %-12s -> same result, %d blocks read\n", forced, alt.Metrics.IO.BlocksRead())
	}

	fmt.Println("\nColumn-order selection: the optimizer orders predicate columns by")
	fmt.Println("conditional selectivity from the Bayesian network, so correlated")
	fmt.Println("columns are read in the order that prunes earliest.")
}
