package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bytecard"
	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/obs"
	"bytecard/internal/sqlparse"
)

// opKind is what one op of a workload calls.
type opKind int

const (
	// opRun executes the query: System.Run(sql).
	opRun opKind = iota
	// opPlan parses, analyzes and plans it with the plan cache bypassed
	// (Engine.PlanWith is cache-free by contract); nothing executes.
	opPlan
	// opEstimate asks the estimation API: System.Estimate(sql, kind).
	opEstimate
)

// spec defines one workload. All four run in one process with product-default
// Options; only the dataset, scale and seed are set.
type spec struct {
	name    string
	dataset string
	scale   float64
	kind    opKind
	queries func(ds *datagen.Dataset, seed int64) ([]query, error)
	// clients is the number of closed-loop client goroutines issuing ops.
	clients int
	// retrainEvery, when positive, adds a writer that retrains one table
	// (round-robin) and refreshes the loader on this fixed schedule.
	retrainEvery time.Duration
}

var specs = []spec{
	{name: "olap_join", dataset: "stats", scale: 0.02, kind: opRun, clients: 2, queries: hybrid(statsHybrid)},
	{name: "plan_adhoc", dataset: "stats", scale: 0.05, kind: opPlan, clients: 2, queries: hybrid(statsAdhoc)},
	{name: "ts_scan", dataset: "timeseries", scale: 1.0, kind: opRun, clients: 2,
		queries: func(ds *datagen.Dataset, seed int64) ([]query, error) { return timeSeriesProbes(ds, 1000, seed) }},
	{name: "estimate_churn", dataset: "aeolus", scale: 0.2, kind: opEstimate, clients: 1, queries: hybrid(aeolusOnline),
		retrainEvery: 250 * time.Millisecond},
}

func hybrid(shape hybridShape) func(*datagen.Dataset, int64) ([]query, error) {
	return func(ds *datagen.Dataset, seed int64) ([]query, error) { return hybridQueries(ds, shape, seed), nil }
}

// env is one set-up system with its op list and, once built, its oracle.
type env struct {
	spec     *spec
	dataSeed int64
	ds       *datagen.Dataset
	sys      *bytecard.System
	queries  []query
	oracle   *oracle
}

// setUp generates the dataset, opens the system (training and loading the
// models) and warms it with one single-client pass in list order. With two
// racing clients the plan cache would keep whichever sibling of a template
// arrived first, and plan decisions and block counts would differ between
// runs. Query generation is the load generator's work and is not timed.
func setUp(sp *spec, dataSeed int64, storeDir string) (*env, float64, error) {
	start := time.Now()
	ds, err := datagen.ByName(sp.dataset, datagen.Config{Scale: sp.scale, Seed: dataSeed})
	if err != nil {
		return nil, 0, err
	}
	sys, err := bytecard.OpenDataset(ds, bytecard.Options{
		Dataset: sp.dataset, Scale: sp.scale, Seed: dataSeed, StoreDir: storeDir,
	})
	if err != nil {
		return nil, 0, err
	}
	timed := time.Since(start)
	queries, err := sp.queries(ds, dataSeed+1)
	if err != nil {
		return nil, 0, err
	}
	e := &env{spec: sp, dataSeed: dataSeed, ds: ds, sys: sys, queries: queries}
	start = time.Now()
	for i := range e.queries {
		if _, err := e.exec(i); err != nil {
			return nil, 0, fmt.Errorf("warm-up %q: %w", e.queries[i].sql, err)
		}
	}
	timed += time.Since(start)
	return e, timed.Seconds(), nil
}

// outcome is the part of an op's output the oracle checks.
type outcome struct {
	sum checksum
	est float64
}

// exec issues op i the way a user of the system would.
func (e *env) exec(i int) (outcome, error) {
	q := e.queries[i]
	switch e.spec.kind {
	case opRun:
		res, err := e.sys.Run(q.sql)
		if err != nil {
			return outcome{}, err
		}
		return outcome{sum: checksumOf(res)}, nil
	case opPlan:
		stmt, err := sqlparse.Parse(q.sql)
		if err != nil {
			return outcome{}, err
		}
		aq, err := e.sys.Engine.Analyze(stmt)
		if err != nil {
			return outcome{}, err
		}
		p, err := e.sys.Engine.PlanWith(aq, e.sys.Estimator)
		if err != nil {
			return outcome{}, err
		}
		return outcome{est: p.EstFinalRows}, nil
	default:
		r, err := e.sys.Estimate(q.sql, bytecard.EstimateOpts{Kind: estimateKind(q)})
		if err != nil {
			return outcome{}, err
		}
		return outcome{est: r.Value}, nil
	}
}

// estimateKind asks for rows on COUNT queries and for distinct groups on
// GROUP BY ones.
func estimateKind(q query) bytecard.EstimateKind {
	if q.distinct {
		return bytecard.EstimateDistinct
	}
	return bytecard.EstimateRows
}

// check compares an op's output with the oracle.
func (e *env) check(i int, out outcome) error {
	if e.spec.kind == opRun {
		if !out.sum.matches(e.oracle.sums[i]) {
			return fmt.Errorf("result checksum differs from the reference: %q", e.queries[i].sql)
		}
		return nil
	}
	return checkEstimate(out.est, e.oracle.upper[i])
}

// phase is what the measured (untraced) phase observed.
type phase struct {
	// latMs holds one client's recorded op latencies in issue order, passS
	// the duration of each of its whole passes.
	latMs, passS []float64
	// samples counts recorded op latencies over all clients. passP50 and
	// passP99 hold each whole pass's latency percentiles; every pass covers
	// the same ops, so they are replicates of one measurement.
	samples          int
	passP50, passP99 []float64
	opsPerS          float64
	attempted        int
	failures
	retrainMs []float64
	lateMsMax float64
	// process deltas over the phase
	allocBytes, allocs uint64
	gcPauseMs          float64
}

// failures counts failed ops and keeps the first error for the report.
type failures struct {
	failed   int
	firstErr error
}

func (f *failures) fail(err error) {
	f.failed++
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// measure runs the closed loop: every client issues its next op when the
// previous one returns, walking the whole op list in a fresh permutation
// drawn from seed each pass. A client keeps starting whole passes until d has
// elapsed, so the op mix of every run is the same, while which ops of two
// clients meet changes from pass to pass and averages out. Once its last
// pass ends a client keeps issuing unrecorded ops until every other client
// (and the writer) has finished, so every recorded op ran under the full
// load. Throughput is the sum of the clients' own rates, each the list length
// over the client's median pass time: every pass is the same work, so the
// median drops a pass that a neighbour on the host or a GC cycle disturbed.
func (e *env) measure(seed int64, d time.Duration) *phase {
	n := len(e.queries)
	clients := e.spec.clients
	parts := make([]phase, clients+1)
	var active atomic.Int32
	active.Store(int32(clients))
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if e.spec.retrainEvery > 0 {
		active.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer active.Add(-1)
			e.writer(t0, d, &parts[clients])
		}()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			rng := rand.New(rand.NewSource(seed*int64(clients) + int64(c)))
			for measuring := true; ; {
				passStart := time.Now()
				for _, i := range rng.Perm(n) {
					if !measuring && active.Load() == 0 {
						return
					}
					start := time.Now()
					out, err := e.exec(i)
					lat := time.Since(start)
					if !measuring {
						continue // cooling down: keeps the load up, not recorded
					}
					if err == nil {
						err = e.check(i, out)
					}
					if err != nil {
						p.fail(err)
					}
					p.latMs = append(p.latMs, lat.Seconds()*1e3)
				}
				if !measuring {
					continue
				}
				p.passS = append(p.passS, time.Since(passStart).Seconds())
				if time.Since(t0) >= d {
					p.opsPerS = float64(n) / median(p.passS)
					measuring = false
					active.Add(-1)
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	total := &phase{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
		gcPauseMs:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	for i := range parts {
		p := &parts[i]
		total.samples += len(p.latMs)
		for at := 0; at+n <= len(p.latMs); at += n {
			pass := append([]float64(nil), p.latMs[at:at+n]...)
			sort.Float64s(pass)
			total.passP50 = append(total.passP50, quantile(pass, 0.50))
			total.passP99 = append(total.passP99, quantile(pass, 0.99))
		}
		total.opsPerS += p.opsPerS
		total.attempted += len(p.latMs) + len(p.retrainMs)
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		total.retrainMs = append(total.retrainMs, p.retrainMs...)
		total.lateMsMax = max(total.lateMsMax, p.lateMsMax)
	}
	return total
}

// writer retrains one table (round-robin) and refreshes the loader every
// retrainEvery, as an open loop: each retrain is timed from when it was due,
// and how late it started is kept, so an overrun shows instead of silently
// thinning the schedule.
func (e *env) writer(t0 time.Time, d time.Duration, p *phase) {
	tables := e.ds.DB.TableNames()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k+1) * e.spec.retrainEvery)
		if due.Sub(t0) >= d {
			return
		}
		time.Sleep(time.Until(due))
		p.lateMsMax = max(p.lateMsMax, time.Since(due).Seconds()*1e3)
		if err := e.retrain(tables[k%len(tables)], nil); err != nil {
			p.fail(err)
		}
		p.retrainMs = append(p.retrainMs, time.Since(due).Seconds()*1e3)
	}
}

// retrain trains one table's model and ships it into the inference engine;
// with a recorder (nil in the measured phase) the two steps become spans.
func (e *env) retrain(table string, rec *recorder) error {
	return rec.in("retrain", func() error {
		if err := rec.in("train_table", func() error {
			_, err := e.sys.Forge.TrainTable(table)
			return err
		}); err != nil {
			return fmt.Errorf("train %s: %w", table, err)
		}
		return rec.in("refresh", func() error {
			_, err := e.sys.Loader.RefreshOnce()
			return err
		})
	})
}

// layerCounts are the counts the traced pass takes at the layer boundaries.
type layerCounts struct {
	ops, retrains int
	failures
	planCacheHits    int
	blocksRead       int64
	blocksSkipped    int64
	rowsMaterialized int64
	hashResizes      int64
	sipPruned        int64
	qerrors          []float64
}

// tracedPass is one single-client pass in which the benchmark calls the
// layers one by one, each under a span: op → {parse, analyze, plan →
// {estimator}, execute} for executed and planned queries, op → {featurize,
// infer} for the estimation API. On a workload with a writer the pass is cut
// into one slice per table and a retrain → {train_table, refresh} follows
// each slice, so every retrain finds caches the slice before it filled.
func (e *env) tracedPass(order []int, rec *recorder) *layerCounts {
	lc := &layerCounts{}
	est := &timedEstimator{inner: e.sys.Estimator, rec: rec}
	view := *e.sys.Engine
	view.Est = est
	var tables []string
	if e.spec.retrainEvery > 0 {
		tables = e.ds.DB.TableNames()
	}
	for k, i := range order {
		rec.op = k
		err := rec.in("op", func() error { return e.tracedOp(i, rec, &view, est, lc) })
		lc.ops++
		if err != nil {
			lc.fail(err)
		}
		if len(tables) > 0 && (k+1)%(len(order)/len(tables)) == 0 && lc.retrains < len(tables) {
			rec.op = len(order) + lc.retrains
			if err := e.retrain(tables[lc.retrains], rec); err != nil {
				lc.fail(err)
			}
			lc.retrains++
		}
	}
	return lc
}

func (e *env) tracedOp(i int, rec *recorder, view *engine.Engine, est *timedEstimator, lc *layerCounts) error {
	q := e.queries[i]
	if e.spec.kind == opEstimate {
		var out outcome
		var fv *core.FeatureVector
		err := rec.in("featurize", func() (err error) { fv, err = e.sys.Featurizer.FeaturizeSQLQuery(q.sql); return })
		if err != nil {
			return err
		}
		err = rec.in("infer", func() error {
			if estimateKind(q) == bytecard.EstimateDistinct {
				out.est, err = e.sys.Estimator.NDVWithTrace(fv, obs.NewTrace())
				return err
			}
			out.est = e.sys.Estimator.CountWithTrace(fv, obs.NewTrace())
			return nil
		})
		if err != nil {
			return err
		}
		return e.check(i, out)
	}

	var stmt *sqlparse.SelectStmt
	var aq *engine.Query
	var p *engine.Plan
	var res *engine.Result
	err := rec.in("parse", func() (err error) { stmt, err = sqlparse.Parse(q.sql); return })
	if err != nil {
		return err
	}
	err = rec.in("analyze", func() (err error) { aq, err = view.Analyze(stmt); return })
	if err != nil {
		return err
	}
	err = rec.in("plan", func() (err error) {
		if e.spec.kind == opPlan {
			p, err = e.sys.Engine.PlanWith(aq, est)
		} else {
			p, err = view.Plan(aq)
		}
		return
	})
	if err != nil {
		return err
	}
	if p.CacheHit {
		lc.planCacheHits++
	}
	if e.spec.kind == opPlan {
		return e.check(i, outcome{est: p.EstFinalRows})
	}
	err = rec.in("execute", func() (err error) { res, err = view.Execute(p); return })
	if err != nil {
		return err
	}
	m := res.Metrics
	lc.blocksRead += m.IO.BlocksRead()
	lc.blocksSkipped += m.IO.BlocksSkipped()
	lc.rowsMaterialized += m.RowsMaterialized
	lc.hashResizes += m.HashResizes
	lc.sipPruned += m.SIPPruned
	lc.qerrors = append(lc.qerrors, obs.QError(m.EstFinalRows, float64(m.ActualFinalRows)))
	return e.check(i, outcome{sum: checksumOf(res)})
}

// storeBytes sums the newest generation of every stored artifact.
func (e *env) storeBytes() (int64, error) {
	manifests, err := e.sys.Store.List()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, m := range manifests {
		n += m.SizeBytes
	}
	return n, nil
}

// removeAll drops a scratch directory; a leftover is only clutter under the
// git-ignored output directory, so the error is reported, not fatal.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: clean-up:", err)
	}
}
