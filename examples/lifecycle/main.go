// Lifecycle: demonstrates the operational loop the paper's framework
// automates — Data Ingestor signals trigger retraining in the ModelForge
// service, the Model Loader ships fresh artifacts into the Inference
// Engine on a timestamp basis, and the Model Monitor probes model quality,
// disabling and recalibrating models that breach the Q-error threshold.
//
//	go run ./examples/lifecycle
package main

import (
	"fmt"
	"log"
	"time"

	"bytecard"
)

func main() {
	fmt.Println("Opening the STATS-like dataset with full training...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "stats",
		Scale:   0.05,
		Seed:    5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d artifacts; registry: %+v\n\n", len(sys.TrainReport.Models), sys.Infer.Snapshot())

	// 1. The Model Monitor probes every single-table COUNT model.
	sys.Monitor.Threshold = 100
	sys.Monitor.Probes = 8
	reports, err := sys.CheckModels()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Model Monitor sweep:")
	for _, r := range reports {
		status := "healthy"
		if r.Breached {
			status = "BREACHED -> disabled, retraining triggered"
		}
		fmt.Printf("  %-14s worst probe q-error %6.2f  %s\n", r.Table, r.Worst, status)
	}

	// 2. Data Ingestor signals: enough ingested rows trigger retraining.
	fmt.Println("\nSignalling data ingestion for 'posts' (Kafka-style consumption info)...")
	before := sys.Infer.Admin().State("bn:posts").Timestamp
	if err := sys.Forge.NotifyIngest("posts", 50); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  +50 rows: below threshold, no retrain")
	if _, err := sys.Forge.TrainTableAt("posts", time.Now().Add(time.Second)); err != nil {
		log.Fatal(err)
	}
	n, err := sys.RefreshModels()
	if err != nil {
		log.Fatal(err)
	}
	after := sys.Infer.Admin().State("bn:posts").Timestamp
	fmt.Printf("  retrained + loader refresh: %d artifact(s) reloaded, model version %v -> %v\n",
		n, before.Format("15:04:05.000"), after.Format("15:04:05.000"))

	// 3. RBX calibration: probe an NDV column, force a breach, fine-tune,
	// revalidate.
	fmt.Println("\nForcing an NDV breach to exercise the calibration protocol...")
	sys.Monitor.Threshold = 0.5 // below the metric floor: every probe breaches
	sys.Monitor.Probes = 4
	rep, err := sys.Monitor.CheckNDV("posts", "view_count")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  breach=%v -> rbx:posts.view_count disabled=%v (estimates fall back to GEE)\n",
		rep.Breached, sys.Infer.Admin().State("rbx:posts.view_count").Disabled)
	if _, err := sys.RefreshModels(); err != nil { // pick up fine-tuned RBX
		log.Fatal(err)
	}
	sys.Monitor.Threshold = 1000
	rep, err = sys.Monitor.RevalidateNDV("posts", "view_count")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  revalidation: breach=%v, column re-enabled=%v\n",
		rep.Breached, !sys.Infer.Admin().State("rbx:posts.view_count").Disabled)

	// 4. Old artifacts can be purged like the paper's training residue.
	removed, err := sys.Store.Purge(time.Now().Add(-24 * time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStore purge of >24h-old artifacts removed %d entries (all current).\n", removed)
}
