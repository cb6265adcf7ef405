// Command benchmark is the repository's benchmark: four workloads over
// bytecard.System, end-to-end metrics measured with tracing off and
// per-layer metrics from a separate traced pass. See README.md.
//
// Run it from the repository root through benchmark/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setUps is how many times an untraced run sets the system up: setup_s is
// the median, so one slow training run does not read as a regression.
const setUps = 3

type config struct {
	workloads []*spec
	seed      int64
	dataSeed  int64
	seconds   float64
	trace     bool
	outDir    string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run as result.json records it; the contract line
// on standard output carries a subset.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Succeeded int              `json:"succeeded"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"latency_samples"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads (olap_join, plan_adhoc, ts_scan, estimate_churn) or all")
	seed := fs.Int64("seed", 1, "drives the op order every client walks")
	dataSeed := fs.Int64("data-seed", 1, "drives datagen and query generation (the fixed database and query log)")
	seconds := fs.Float64("seconds", 10, "measured time per workload")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run two sets of N runs per workload, each run another seed, and check spread and drift against BENCHMARK.json")
	selfcheck := fs.Bool("selfcheck", false, "run each workload twice and require the exact-count metrics to repeat byte for byte")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, traces and model stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, dataSeed: *dataSeed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	for _, name := range strings.Split(*names, ",") {
		matched := false
		for i := range specs {
			if name == "all" || name == specs[i].name {
				cfg.workloads = append(cfg.workloads, &specs[i])
				matched = true
			}
		}
		if !matched {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
	}
	if cfg.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(cfg, stderr)
	case *repeat > 0:
		err = repeatSets(cfg, *repeat, stderr)
	default:
		err = runOnce(cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOnce runs every selected workload, prints the human table to stderr and
// one contract line per workload to stdout, and writes result.json.
func runOnce(cfg config, stdout, stderr io.Writer) error {
	var results []*result
	for _, sp := range cfg.workloads {
		r, err := runWorkload(sp, cfg, stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		results = append(results, r)
	}
	if err := writeResultFile(cfg, results); err != nil {
		return err
	}
	reported := endToEnd
	if cfg.trace {
		reported = perLayer
	}
	for _, r := range results {
		printTable(stderr, r)
		line := map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed}
		metrics := map[string]value{}
		for _, d := range reported {
			metrics[d.name] = r.Metrics[d.name]
		}
		line["metrics"] = metrics
		blob, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(blob))
	}
	return nil
}

func runWorkload(sp *spec, cfg config, stderr io.Writer) (*result, error) {
	storeDir := func(tag string) string {
		return filepath.Join(cfg.outDir, fmt.Sprintf("store-%s-%d-%s", sp.name, os.Getpid(), tag))
	}
	n := setUps
	if cfg.trace {
		n = 1 // a traced run reports no setup_s median; spend the time on the passes
	}
	began := time.Now()
	lap := func(what string) {
		fmt.Fprintf(stderr, "%s: %s done at %.1fs\n", sp.name, what, time.Since(began).Seconds())
	}
	var e *env
	var setupS []float64
	for k := 0; k < n; k++ {
		e = nil
		runtime.GC() // the previous system is garbage; do not bill it to this set-up
		dir := storeDir(fmt.Sprint("setup", k))
		defer removeAll(dir)
		var secs float64
		var err error
		if e, secs, err = setUp(sp, cfg.dataSeed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, secs)
	}
	lap("set-up")
	runtime.GC()
	var afterSetup runtime.MemStats
	runtime.ReadMemStats(&afterSetup)

	refDir := storeDir("reference")
	defer removeAll(refDir)
	var err error
	if e.oracle, err = buildOracle(e, refDir); err != nil {
		return nil, err
	}

	lap("reference pass")

	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(e.queries))
	ph := e.measure(cfg.seed, time.Duration(cfg.seconds*float64(time.Second)))
	if ph.firstErr != nil {
		fmt.Fprintf(stderr, "%s: first failed op: %v\n", sp.name, ph.firstErr)
	}
	lap("measured phase")
	r := &result{
		Workload: sp.name, Attempted: ph.attempted, Failed: ph.failed, Samples: ph.samples,
		Metrics: map[string]value{},
	}
	set := func(defs []metricDef, vals map[string]float64) error {
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s is %v", d.name, v)
			}
			r.Metrics[d.name] = value{Value: v, Unit: d.unit}
		}
		return nil
	}
	if err := set(endToEnd, map[string]float64{
		"ops_per_s":      ph.opsPerS,
		"latency_p50_ms": median(ph.passP50),
		"latency_p99_ms": median(ph.passP99),
		"setup_s":        median(setupS),
	}); err != nil {
		return nil, err
	}
	if cfg.trace {
		vals, lc, err := e.layerMetrics(order, ph, cfg.outDir)
		if err != nil {
			return nil, err
		}
		vals["heap_after_setup_mb"] = float64(afterSetup.HeapAlloc) / (1 << 20)
		if err := set(perLayer, vals); err != nil {
			return nil, err
		}
		if lc.firstErr != nil {
			fmt.Fprintf(stderr, "%s: first failed traced op: %v\n", sp.name, lc.firstErr)
		}
		lap("traced pass")
		r.Attempted += lc.ops + lc.retrains
		r.Failed += lc.failed
	}
	r.Succeeded = r.Attempted - r.Failed
	r.Correct = r.Failed == 0
	return r, nil
}

// layerMetrics runs the traced pass (and, before it, one untraced
// single-client pass to compare it with) and derives every per-layer metric.
func (e *env) layerMetrics(order []int, ph *phase, outDir string) (map[string]float64, *layerCounts, error) {
	start := time.Now()
	for _, i := range order {
		if _, err := e.exec(i); err != nil {
			return nil, nil, fmt.Errorf("untraced comparison pass: %w", err)
		}
	}
	plainNs := float64(time.Since(start).Nanoseconds())

	before := e.sys.Metrics()
	rec := newRecorder()
	lc := e.tracedPass(order, rec)
	after := e.sys.Metrics()
	if err := rec.write(outDir, e.spec.name); err != nil {
		return nil, nil, err
	}
	storeBytes, err := e.storeBytes()
	if err != nil {
		return nil, nil, err
	}

	total, self := rec.totals()
	ops, retrains := float64(lc.ops), float64(lc.retrains)
	est0, est1 := before.Estimator, after.Estimator
	calls := float64(est1.Calls - est0.Calls)
	hits := float64(est1.CacheHits - est0.CacheHits)
	misses := float64(est1.CacheMisses - est0.CacheMisses)
	source := func(name string) float64 { return float64(est1.Sources[name]-est0.Sources[name]) / ops }
	var invalidations int64
	for name, c := range after.Caches {
		invalidations += c.Invalidations - before.Caches[name].Invalidations
	}
	sort.Float64s(lc.qerrors)
	retrainMs := append([]float64(nil), ph.retrainMs...)
	sort.Float64s(retrainMs)
	measured := float64(ph.samples)

	return map[string]float64{
		"parse_us_per_op":                 total["parse"] / ops / 1e3,
		"analyze_us_per_op":               total["analyze"] / ops / 1e3,
		"plan_cache_hit_share":            float64(lc.planCacheHits) / ops,
		"plan_us_per_op":                  self["plan"] / ops / 1e3,
		"estimator_us_per_op":             total["estimator"] / ops / 1e3,
		"estimator_calls_per_op":          calls / ops,
		"fallback_share":                  ratio(float64(est1.Fallbacks-est0.Fallbacks), calls),
		"joinvec_hit_share":               ratio(hits, hits+misses),
		"joinvec_evictions_per_op":        float64(est1.CacheEvictions-est0.CacheEvictions) / ops,
		"est_bn_calls_per_op":             source("bn"),
		"est_factorjoin_calls_per_op":     source("factorjoin"),
		"est_rbx_calls_per_op":            source("rbx"),
		"est_sketch_calls_per_op":         source("sketch"),
		"featurize_us_per_op":             total["featurize"] / ops / 1e3,
		"infer_us_per_op":                 total["infer"] / ops / 1e3,
		"exec_ms_per_op":                  total["execute"] / ops / 1e6,
		"rows_materialized_per_op":        float64(lc.rowsMaterialized) / ops,
		"hash_resizes_per_op":             float64(lc.hashResizes) / ops,
		"sip_pruned_per_op":               float64(lc.sipPruned) / ops,
		"qerror_p90":                      quantile(lc.qerrors, 0.90),
		"blocks_read_per_op":              float64(lc.blocksRead) / ops,
		"blocks_skipped_per_op":           float64(lc.blocksSkipped) / ops,
		"skip_share":                      ratio(float64(lc.blocksSkipped), float64(lc.blocksRead+lc.blocksSkipped)),
		"train_ms_per_retrain":            ratio(total["train_table"], retrains) / 1e6,
		"refresh_ms_per_retrain":          ratio(total["refresh"], retrains) / 1e6,
		"models_loaded":                   float64(after.Registry.Loads),
		"store_bytes":                     float64(storeBytes),
		"cache_invalidations_per_retrain": ratio(float64(invalidations), retrains),
		"retrain_p50_ms":                  quantile(retrainMs, 0.50),
		"writer_late_ms_max":              ph.lateMsMax,
		"alloc_bytes_per_op":              float64(ph.allocBytes) / measured,
		"allocs_per_op":                   float64(ph.allocs) / measured,
		"gc_pause_ms_total":               ph.gcPauseMs,
		"exec_self_share":                 self["execute"] / total["op"],
		"plan_self_share":                 (self["plan"] + total["estimator"]) / total["op"],
		"trace_overhead_share":            total["op"]/plainNs - 1,
	}, lc, nil
}

func printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d, latency samples %d\n", r.Workload, r.Attempted, r.Failed, r.Samples)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
}

// writeResultFile writes the machine-readable copy of the run.
func writeResultFile(cfg config, results []*result) error {
	doc := map[string]any{
		"seed": cfg.seed, "data_seed": cfg.dataSeed, "seconds": cfg.seconds, "traced": cfg.trace,
		"environment": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		},
		"workloads": results,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(blob, '\n'), 0o644)
}
