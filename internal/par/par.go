// Package par provides the bounded worker pools used by model training
// (Chow-Liu MI matrix, FactorJoin build) and the executor's morsel-driven
// scans (Chunks, Strided). It is the repo's one blessed goroutine source:
// every library fan-out routes through here — enforced by the
// goroutinesrc analyzer — so worker clamping and scheduling determinism
// stay centralized. Training parallelism is resolved separately from the
// executor's BYTECARD_PARALLELISM: training runs in ModelForge's
// background refresh, not on the query critical path, so its only knob is
// the caller's requested worker count (TrainWorkers).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Do runs fn(i) for every i in [0, n) across at most workers goroutines,
// each pulling the next index from a shared atomic cursor, and blocks until
// all calls return. With workers <= 1 or n <= 1 it degenerates to a plain
// serial loop (no goroutines). fn must be safe to call concurrently for
// distinct indices; Do establishes a happens-before edge from every fn call
// to its return, so callers may read results without further locking.
func Do(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Chunks runs fn for every chunk index in [0, chunks) across up to
// workers goroutines, dispatching chunks dynamically (morsel-driven: an
// atomic cursor balances uneven chunks) and passing each call the spawned
// worker's index. Callers write outputs into chunk-indexed slots, which
// keeps concatenation deterministic regardless of scheduling. With
// workers <= 1 it degenerates to a serial loop on worker 0.
func Chunks(workers, chunks int, fn func(worker, chunk int)) {
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(0, c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fn(worker, c)
			}
		}(w)
	}
	wg.Wait()
}

// Strided statically assigns chunk c to worker c mod workers, each worker
// visiting its chunks in ascending order. Aggregation uses this instead of
// dynamic dispatch so each worker's accumulation order — and therefore
// floating-point partial sums — is reproducible run to run.
func Strided(workers, chunks int, fn func(worker, chunk int)) {
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(0, c)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for c := worker; c < chunks; c += workers {
				fn(worker, c)
			}
		}(w)
	}
	wg.Wait()
}

// Effective clamps a requested worker count to the machine's effective
// parallelism. Spawning more CPU-bound workers than GOMAXPROCS is pure
// scheduling overhead — on a one-CPU box a "4-worker" fan-out serializes
// anyway, paying goroutine spawn and cursor contention for nothing — so
// every fan-out decision (estimator batches, training pools) routes its
// request through here and the 1-effective-worker path degenerates to
// the plain serial loop inside Do.
func Effective(workers int) int {
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// overheadOnce measures, once per process, the fixed cost of one Do
// fan-out (goroutine spawn, shared-cursor contention, WaitGroup join)
// over the serial loop on a trivial body. The measurement is clamped to
// [1µs, 1ms]: the floor keeps a degenerate reading (GOMAXPROCS=1, where
// Do never spawns) meaningful, the ceiling keeps one noisy scheduling
// hiccup from suppressing fan-out for the whole process lifetime.
var overheadOnce = sync.OnceValue(func() time.Duration {
	const rounds, n = 8, 64
	body := func(int) {}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		Do(n, 1, body)
	}
	serial := time.Since(start)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		Do(n, runtime.GOMAXPROCS(0), body)
	}
	d := (time.Since(start) - serial) / rounds
	if d < time.Microsecond {
		d = time.Microsecond
	}
	if d > time.Millisecond {
		d = time.Millisecond
	}
	return d
})

// Overhead returns the measured per-call fixed cost of a Do fan-out on
// this machine. Callers compare it against the work a batch would spread
// across workers to decide whether fanning out pays at all.
func Overhead() time.Duration { return overheadOnce() }

// TrainWorkers resolves the training worker count: an explicit positive
// request wins, otherwise GOMAXPROCS — clamped to effective parallelism
// either way, so a 4-worker request on a 1-CPU box takes the serial path
// (trained artifacts are byte-identical at any worker count, so the clamp
// is a pure wall-clock win).
func TrainWorkers(requested int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return Effective(requested)
}
