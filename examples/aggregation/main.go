// Aggregation: demonstrates RBX-driven hash-table presizing during GROUP BY
// processing — the paper's Figure 6b mechanism. The same aggregation runs
// with ByteCard's NDV estimate sizing the hash table and with a cold-start
// table, and the resize counts are compared.
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"

	"bytecard"
)

func main() {
	fmt.Println("Training ByteCard over the AEOLUS-like dataset...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "aeolus",
		Scale:   0.05,
		Seed:    3,
	})
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		"SELECT ad_events.event_type, ad_events.duration, COUNT(*) FROM ad_events GROUP BY ad_events.event_type, ad_events.duration",
		"SELECT users_dim.age_group, users_dim.region, COUNT(*), AVG(ad_events.cost) FROM ad_events, users_dim WHERE ad_events.user_id = users_dim.id GROUP BY users_dim.age_group, users_dim.region",
	}
	for _, sql := range queries {
		fmt.Printf("\nQ: %s\n", sql)

		res, err := sys.Run(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  with RBX presizing: %5d groups, initial capacity %5d, %d resizes\n",
			len(res.Rows), res.Metrics.InitialAggCapacity, res.Metrics.HashResizes)

		sys.Engine.DisableNDVPresize = true
		sys.Engine.AggCapacity = 16
		cold, err := sys.Run(sql)
		sys.Engine.DisableNDVPresize = false
		sys.Engine.AggCapacity = 0
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cold start:         %5d groups, initial capacity %5d, %d resizes\n",
			len(cold.Rows), cold.Metrics.InitialAggCapacity, cold.Metrics.HashResizes)
		if len(res.Rows) != len(cold.Rows) {
			log.Fatalf("presizing changed results: %d vs %d groups", len(res.Rows), len(cold.Rows))
		}
	}

	fmt.Println("\nAccurate NDV estimates size the hash table once; cold starts pay")
	fmt.Println("repeated rehashing — the cost that grows with data scale in Fig 6b.")
}
