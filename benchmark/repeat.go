package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

// child runs one workload once in a fresh process of this binary, the way
// the benchmark's users invoke it, and parses the contract line.
func child(cfg config, workload string, seed int64, seconds float64, trace int, stderr io.Writer) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-data-seed", strconv.FormatInt(cfg.dataSeed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", cfg.outDir)
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, errOut.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line contractLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result object: %w", workload, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed\n%s", workload, seed, line.Failed, line.Attempted, errOut.String())
	}
	fmt.Fprintf(stderr, "  %s seed %d ok (%d ops)\n", workload, seed, line.Attempted)
	return &line, nil
}

// selfCheck runs every selected workload twice with the same seed and
// requires the exact-count layer metrics to repeat byte for byte.
func selfCheck(cfg config, stderr io.Writer) error {
	bad := 0
	for _, sp := range cfg.workloads {
		var runs [2]*contractLine
		for k := range runs {
			var err error
			if runs[k], err = child(cfg, sp.name, cfg.seed, 1, 1, stderr); err != nil {
				return err
			}
		}
		for _, name := range exactMetrics {
			a, b := runs[0].Metrics[name], runs[1].Metrics[name]
			if a == nil || !bytes.Equal(a, b) {
				bad++
				fmt.Fprintf(stderr, "selfcheck: %s %s differs between two runs of seed %d: %s vs %s\n", sp.name, name, cfg.seed, a, b)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d exact metrics did not repeat", bad)
	}
	fmt.Fprintln(stderr, "selfcheck: every exact metric repeated byte for byte")
	return nil
}

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json in the working directory (the repository root).
func bounds() (map[string]float64, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// repeatSets applies the benchmark's own acceptance rule: two sets of n runs
// per workload, each run of a set with another seed; per end-to-end metric
// the spread of a set (distance between its quartiles over its median) must
// stay within the metric's bound — setup_s excepted — and the second set's
// median may not be worse than the first's by more than the bound.
func repeatSets(cfg config, n int, stderr io.Writer) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	bad := 0
	for _, sp := range cfg.workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				line, err := child(cfg, sp.name, cfg.seed+int64(i), cfg.seconds, 0, stderr)
				if err != nil {
					return err
				}
				for _, d := range endToEnd {
					var v value
					if err := json.Unmarshal(line.Metrics[d.name], &v); err != nil {
						return fmt.Errorf("%s %s: %w", sp.name, d.name, err)
					}
					sets[s][d.name] = append(sets[s][d.name], v.Value)
				}
			}
		}
		fmt.Fprintf(stderr, "\n%s (two sets of %d runs)\n  %-16s %4s %12s %12s %12s %8s %7s\n",
			sp.name, n, "metric", "set", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			var med [2]float64
			for s := range sets {
				vs := sets[s][d.name]
				q1, q3 := quartiles(vs)
				med[s] = median(vs)
				spread := (q3 - q1) / med[s]
				flag := ""
				if d.name != "setup_s" && spread > bound[d.name] {
					flag = "  SPREAD ABOVE BOUND"
					bad++
				}
				fmt.Fprintf(stderr, "  %-16s %4d %12.4f %12.4f %12.4f %7.2f%% %6.0f%%%s\n",
					d.name, s+1, q1, med[s], q3, 100*spread, 100*bound[d.name], flag)
			}
			worse := (med[1] - med[0]) / med[0]
			if d.higher {
				worse = -worse
			}
			if worse > bound[d.name] {
				bad++
				fmt.Fprintf(stderr, "  %-16s second median worse than the first by %.2f%%  DRIFT ABOVE BOUND\n", d.name, 100*worse)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("repeat: %d checks above their bound", bad)
	}
	return nil
}
