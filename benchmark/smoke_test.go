package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the parts of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricJSON            `json:"end_to_end"`
	PerLayer  []metricJSON            `json:"per_layer"`
}

type metricJSON struct {
	Name, Unit, Better string
}

// TestSmoke runs all four workloads for about a second each, traced, and
// checks what they emit against BENCHMARK.json: every workload and metric
// named there is reported with its unit, as a finite number, and no op fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up four systems")
	}
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", def.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", def.PerLayer, perLayer)

	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-seconds", "1", "-trace", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}

	// One contract line per workload, per-layer metrics only.
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) != len(def.Workloads) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(def.Workloads))
	}
	for _, l := range lines {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(l, &line); err != nil {
			t.Fatalf("result line: %v\n%s", err, l)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[key]; !ok {
				t.Errorf("result line lacks %q", key)
			}
		}
		var metrics map[string]value
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || len(metrics) != len(def.PerLayer) {
			t.Errorf("result line has %d keys and %d metrics, want 4 and %d", len(line), len(metrics), len(def.PerLayer))
		}
	}

	// result.json carries both kinds of metric for every workload.
	blob, err = os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Workloads []result }
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]result{}
	for _, r := range doc.Workloads {
		byName[r.Workload] = r
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range def.Workloads {
		r, ok := byName[w.Name]
		if !ok {
			t.Errorf("workload %s not reported", w.Name)
			continue
		}
		if r.Failed != 0 || !r.Correct || r.Attempted < 1 || r.Succeeded != r.Attempted {
			t.Errorf("%s: attempted %d, succeeded %d, failed %d, correct %v", w.Name, r.Attempted, r.Succeeded, r.Failed, r.Correct)
		}
		for _, m := range append(append([]metricJSON(nil), def.EndToEnd...), def.PerLayer...) {
			v, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not reported", w.Name, m.Name)
			case v.Unit != m.Unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, v.Unit, m.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: metric %s is %v", w.Name, m.Name, v.Value)
			case !name.MatchString(m.Name):
				t.Errorf("metric name %q is malformed", m.Name)
			}
		}
		for _, m := range def.EndToEnd {
			if r.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, m.Name, r.Metrics[m.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}

	// The layers separate: what each workload exists to stress is where its
	// time goes.
	share := func(w, m string) float64 { return byName[w].Metrics[m].Value }
	for _, c := range []struct {
		workload, metric string
		min, max         float64
	}{
		{"olap_join", "exec_self_share", 0.90, 1},
		{"olap_join", "plan_self_share", 0, 0.01},
		{"olap_join", "skip_share", 0, 0.1},
		{"plan_adhoc", "exec_self_share", 0, 0},
		{"plan_adhoc", "plan_self_share", 0.80, 1},
		{"ts_scan", "skip_share", 0.8, 1},
		{"estimate_churn", "cache_invalidations_per_retrain", math.SmallestNonzeroFloat64, math.Inf(1)},
	} {
		if v := share(c.workload, c.metric); v < c.min || v > c.max {
			t.Errorf("%s: %s is %v, want within [%v, %v]", c.workload, c.metric, v, c.min, c.max)
		}
	}
}

// checkDefs requires BENCHMARK.json and the benchmark's own metric table to
// list the same metrics in the same order with the same unit and direction.
func checkDefs(t *testing.T, kind string, file []metricJSON, code []metricDef) {
	t.Helper()
	if len(file) != len(code) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(file), len(code))
	}
	for i, m := range file {
		better := "lower"
		if code[i].higher {
			better = "higher"
		}
		if m.Name != code[i].name || m.Unit != code[i].unit || m.Better != better {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark has %+v", kind, i, m, code[i])
		}
	}
}
