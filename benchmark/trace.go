package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/expr"
)

// span is one timed layer call. Spans of one op share its id; Parent indexes
// the span that caused this one (-1 for an op's root span).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder keeps the traced pass's spans in memory. The traced pass runs on
// one goroutine, so the open-span stack needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, StartNs: time.Since(r.t0).Nanoseconds(), Parent: parent, Op: r.op})
}

func (r *recorder) end() {
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].EndNs = time.Since(r.t0).Nanoseconds()
}

// in runs fn under a span named name; a nil recorder just runs fn.
func (r *recorder) in(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	r.begin(name)
	defer r.end()
	return fn()
}

// totals sums span durations by name: total is the whole span, self is the
// span minus the part its child spans cover.
func (r *recorder) totals() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	for _, s := range r.spans {
		d := float64(s.EndNs - s.StartNs)
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= d
		}
	}
	return total, self
}

func (r *recorder) write(dir, workload string) error {
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), blob, 0o644)
}

// timedEstimator wraps the system's estimator so that every call the planner
// makes becomes an "estimator" span under the open "plan" span.
type timedEstimator struct {
	inner engine.BatchCardEstimator
	rec   *recorder
}

func (t *timedEstimator) Name() string { return t.inner.Name() }

func (t *timedEstimator) EstimateFilter(qt *engine.QueryTable) float64 {
	t.rec.begin("estimator")
	defer t.rec.end()
	return t.inner.EstimateFilter(qt)
}

func (t *timedEstimator) EstimateConj(qt *engine.QueryTable, preds []expr.Pred) float64 {
	t.rec.begin("estimator")
	defer t.rec.end()
	return t.inner.EstimateConj(qt, preds)
}

func (t *timedEstimator) EstimateJoin(tables []*engine.QueryTable, joins []engine.JoinCond) float64 {
	t.rec.begin("estimator")
	defer t.rec.end()
	return t.inner.EstimateJoin(tables, joins)
}

func (t *timedEstimator) EstimateGroupNDV(q *engine.Query) float64 {
	t.rec.begin("estimator")
	defer t.rec.end()
	return t.inner.EstimateGroupNDV(q)
}

func (t *timedEstimator) EstimateJoinBatch(items []engine.JoinBatchItem, parallelism int) []float64 {
	t.rec.begin("estimator")
	defer t.rec.end()
	return t.inner.EstimateJoinBatch(items, parallelism)
}
