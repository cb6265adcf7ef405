// Command modelforge-server runs the ModelForge training service as a
// standalone hardened HTTP server — the paper's isolated-training
// deployment shape, with the serving-resilience layer on: socket timeouts,
// bounded in-flight admission (429 + Retry-After on overload), per-request
// deadlines propagated into training, panic recovery, /healthz + /readyz
// probes, and graceful drain on SIGINT/SIGTERM.
//
//	modelforge-server -dataset stats -addr :8491 -store ./models
//
// Endpoints: POST /train, POST /train/{table}, POST /ingest,
// POST /finetune, GET /models, GET /healthz, GET /readyz.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bytecard/internal/datagen"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
)

func main() {
	var (
		dataset  = flag.String("dataset", "imdb", "dataset: imdb, stats, aeolus, toy")
		scale    = flag.Float64("scale", 0.05, "dataset scale factor")
		seed     = flag.Int64("seed", 1, "generator seed")
		dir      = flag.String("store", "./models", "model store directory")
		addr     = flag.String("addr", ":8491", "listen address")
		keepGens = flag.Int("keep-generations", modelstore.DefaultKeepGenerations,
			"artifact generations retained per model key for corruption fallback")
		maxInFlight = flag.Int("max-inflight", 8,
			"concurrent requests served before shedding with 429")
		reqTimeout = flag.Duration("request-timeout", 10*time.Minute,
			"per-request deadline propagated into training")
		drainGrace = flag.Duration("shutdown-grace", 30*time.Second,
			"time allowed for in-flight requests to drain on shutdown")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *dir, *addr, *keepGens, *maxInFlight, *reqTimeout, *drainGrace); err != nil {
		fmt.Fprintln(os.Stderr, "modelforge-server:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed int64, dir, addr string,
	keepGens, maxInFlight int, reqTimeout, drainGrace time.Duration) error {
	ds, err := datagen.ByName(dataset, datagen.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	store, err := modelstore.Open(dir, modelstore.WithKeepGenerations(keepGens))
	if err != nil {
		return err
	}
	svc := modelforge.New(ds.Name, ds.DB, ds.Schema, store, modelforge.Config{
		Seed: seed,
	})
	h := modelforge.NewHardened(svc, modelforge.ServeConfig{
		MaxInFlight:    maxInFlight,
		RequestTimeout: reqTimeout,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.ListenAndServe(addr) }()
	fmt.Printf("modelforge-server: dataset %s (%d rows), store %s (keep %d gens), listening on %s\n",
		ds.Name, ds.DB.TotalRows(), dir, keepGens, addr)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("modelforge-server: draining (readiness off)")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := h.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return <-serveErr
}
