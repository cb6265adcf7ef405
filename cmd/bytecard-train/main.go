// Command bytecard-train runs the ModelForge training pipeline for one
// dataset and writes the artifacts into a model store directory.
//
//	bytecard-train -dataset imdb -scale 0.05 -store ./models
package main

import (
	"flag"
	"fmt"
	"os"

	"bytecard/internal/datagen"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
)

func main() {
	var (
		dataset = flag.String("dataset", "imdb", "dataset: imdb, stats, aeolus, toy")
		scale   = flag.Float64("scale", 0.05, "dataset scale factor")
		seed    = flag.Int64("seed", 1, "generator seed")
		dir     = flag.String("store", "./models", "model store directory")
		buckets = flag.Int("buckets", 50, "FactorJoin bucket count")
		sample  = flag.Int("sample", 8000, "BN training sample rows")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *dir, *buckets, *sample); err != nil {
		fmt.Fprintln(os.Stderr, "bytecard-train:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed int64, dir string, buckets, sampleRows int) error {
	ds, err := datagen.ByName(dataset, datagen.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d tables, %d rows\n", ds.Name, len(ds.DB.TableNames()), ds.DB.TotalRows())
	store, err := modelstore.Open(dir)
	if err != nil {
		return err
	}
	forge := modelforge.New(ds.Name, ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows:  sampleRows,
		BucketCount: buckets,
		Seed:        seed,
	})
	report, err := forge.TrainAll()
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %-12s %12s %12s\n", "Artifact", "Kind", "Size(KB)", "Train(s)")
	for _, m := range report.Models {
		fmt.Printf("%-28s %-12s %12.1f %12.2f\n", m.Name, m.Kind, float64(m.SizeBytes)/1024, m.TrainSeconds)
	}
	fmt.Printf("total training time: %.1fs; artifacts in %s\n", report.TotalSeconds, dir)
	return nil
}
