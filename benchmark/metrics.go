package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json repeats these names,
// units and directions; the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

// endToEnd lists what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"latency_p99_ms", "ms", false},
	{"setup_s", "s", false},
}

// perLayer lists the single-layer metrics of the traced run. Every workload
// reports every one; a layer a workload never enters reads 0.
var perLayer = []metricDef{
	// sqlparse, engine.analyze, engine.plancache
	{"parse_us_per_op", "us", false},
	{"analyze_us_per_op", "us", false},
	{"plan_cache_hit_share", "share", true},
	// engine.optimize (self: plan span minus estimator spans) and core
	{"plan_us_per_op", "us", false},
	{"estimator_us_per_op", "us", false},
	{"estimator_calls_per_op", "count", false},
	{"fallback_share", "share", false},
	{"joinvec_hit_share", "share", true},
	{"joinvec_evictions_per_op", "count", false},
	{"est_bn_calls_per_op", "count", false},
	{"est_factorjoin_calls_per_op", "count", false},
	{"est_rbx_calls_per_op", "count", false},
	{"est_sketch_calls_per_op", "count", false},
	// core featurize / infer (the estimation API)
	{"featurize_us_per_op", "us", false},
	{"infer_us_per_op", "us", false},
	// engine.exec
	{"exec_ms_per_op", "ms", false},
	{"rows_materialized_per_op", "count", false},
	{"hash_resizes_per_op", "count", false},
	{"sip_pruned_per_op", "count", true},
	{"qerror_p90", "ratio", false},
	// storage
	{"blocks_read_per_op", "count", false},
	{"blocks_skipped_per_op", "count", true},
	{"skip_share", "share", true},
	// modelforge, modelstore + loader, core registry
	{"train_ms_per_retrain", "ms", false},
	{"refresh_ms_per_retrain", "ms", false},
	{"models_loaded", "count", false},
	{"store_bytes", "bytes", false},
	{"cache_invalidations_per_retrain", "count", false},
	{"retrain_p50_ms", "ms", false},
	{"writer_late_ms_max", "ms", false},
	// process
	{"alloc_bytes_per_op", "bytes", false},
	{"allocs_per_op", "count", false},
	{"gc_pause_ms_total", "ms", false},
	{"heap_after_setup_mb", "MB", false},
	// trace
	{"exec_self_share", "share", false},
	{"plan_self_share", "share", false},
	{"trace_overhead_share", "share", false},
}

// exactMetrics are the per-layer metrics that must repeat byte for byte for
// a fixed seed; -selfcheck compares them between two runs.
var exactMetrics = []string{
	"blocks_read_per_op", "blocks_skipped_per_op", "rows_materialized_per_op",
	"estimator_calls_per_op", "qerror_p90",
}

// quantile returns the q-quantile of sorted (nearest rank, 0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); vs is left unsorted.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is how the
// acceptance rule for this benchmark defines spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// ratio is a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
