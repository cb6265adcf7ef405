// Command bytecard-bench regenerates the paper's evaluation tables and
// figures on the synthetic reproduction datasets.
//
// Usage:
//
//	bytecard-bench -exp all            # every experiment
//	bytecard-bench -exp table1,fig5    # a subset
//	bytecard-bench -scale 0.1 -seed 7  # bigger data, different seed
//
// Output is a textual rendering of each table/figure; EXPERIMENTS.md in
// the repository root records a reference run. Performance claims about
// the system itself are measured by the repository benchmark in
// benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bytecard/internal/bench"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,table5,table6,fig5,fig6a,fig6b,fig7 or all; drift (residual-correction drift study) runs only when named explicitly")
		scale    = flag.Float64("scale", 0.05, "dataset scale factor")
		seed     = flag.Int64("seed", 1, "generator seed")
		probes   = flag.Int("probes", 60, "Q-error probes per dataset")
		datasets = flag.String("datasets", "imdb,stats,aeolus", "datasets to evaluate")
		verbose  = flag.Bool("v", false, "log progress")
	)
	flag.Parse()

	var logf func(format string, args ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	cfg := bench.Config{Scale: *scale, Seed: *seed, ProbeCount: *probes, Log: logf}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	names := strings.Split(*datasets, ",")

	if err := run(cfg, names, func(name string) bool { return all || want[name] }); err != nil {
		fmt.Fprintln(os.Stderr, "bytecard-bench:", err)
		os.Exit(1)
	}
	// The drift study builds its own environments (clean-trained models vs
	// drifted data), so it is opt-in rather than part of -exp all.
	if want["drift"] {
		if err := runDrift(cfg, names); err != nil {
			fmt.Fprintln(os.Stderr, "bytecard-bench:", err)
			os.Exit(1)
		}
	}
}

func runDrift(cfg bench.Config, datasets []string) error {
	fmt.Println("== Drift: stale-model q-error before/after online residual correction ==")
	fmt.Printf("%-8s %-12s %8s %8s %8s %10s\n", "Dataset", "Mode", "P50", "P90", "P99", "max")
	for _, ds := range datasets {
		rows, err := bench.DriftExperiment(ds, cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			s := r.Summary
			fmt.Printf("%-8s %-12s %8.2f %8.2f %8.2f %10.2f\n", r.Dataset, r.Mode, s.P50, s.P90, s.P99, s.Max)
		}
	}
	fmt.Println()
	return nil
}

func run(cfg bench.Config, datasets []string, want func(string) bool) error {
	needEnv := want("table1") || want("table2") || want("table3") || want("table5") ||
		want("table6") || want("fig5") || want("fig7")
	envs := map[string]*bench.Env{}
	if needEnv {
		for _, ds := range datasets {
			env, err := bench.NewEnv(ds, cfg)
			if err != nil {
				return fmt.Errorf("environment for %s: %w", ds, err)
			}
			envs[ds] = env
		}
	}

	if want("table1") {
		fmt.Println("== Table 1: Estimation Errors of Traditional CardEst Methods ==")
		if err := printQErrorTable(datasets, envs, func(e *bench.Env) ([]bench.QErrorRow, error) { return e.Table1() }); err != nil {
			return err
		}
	}
	if want("table2") {
		fmt.Println("== Table 2: Estimation Errors of Learned CardEst Methods (ByteCard) ==")
		if err := printQErrorTable(datasets, envs, func(e *bench.Env) ([]bench.QErrorRow, error) { return e.Table2() }); err != nil {
			return err
		}
	}
	if want("table3") {
		fmt.Println("== Table 3: Training Time and Model Size ==")
		fmt.Printf("%-24s %-8s %14s %14s\n", "Method", "Dataset", "TrainTime(s)", "ModelSize(KB)")
		for _, ds := range datasets {
			rows, err := envs[ds].Table3()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Printf("%-24s %-8s %14.2f %14.1f\n", r.Method, r.Dataset, r.TrainSeconds, float64(r.ModelBytes)/1024)
			}
		}
		fmt.Println()
	}
	if want("table5") {
		fmt.Println("== Table 5: Workload Statistics ==")
		fmt.Printf("%-16s %8s %10s %8s %8s %12s %22s %10s %10s\n",
			"Workload", "queries", "templates", "tables", "grpkeys", "hit-max-tab", "true-card range", "hit-max", "grp-hit")
		for _, ds := range datasets {
			env := envs[ds]
			s, err := env.Table5()
			if err != nil {
				return err
			}
			fmt.Printf("%-16s %8d %10d %d-%-6d %d-%-6d %12d %10.2g--%-10.2g %10d\n",
				env.Hybrid.Name, s.Queries, s.JoinTemplates, s.MinTables, s.MaxTables,
				s.MinGroupKeys, s.MaxGroupKeys, s.HitMaxTables, s.MinCard, s.MaxCard, s.HitMaxGroupKeys)
		}
		fmt.Println()
	}
	if want("table6") {
		fmt.Println("== Table 6: Details of ByteCard's Models Per Dataset ==")
		fmt.Printf("%-8s %-12s %14s %14s\n", "Dataset", "Method", "ModelSize(KB)", "TrainTime(s)")
		for _, ds := range datasets {
			for _, r := range envs[ds].Table6() {
				fmt.Printf("%-8s %-12s %14.1f %14.2f\n", r.Dataset, r.Method, float64(r.SizeBytes)/1024, r.TrainSeconds)
			}
		}
		fmt.Println()
	}
	if want("fig5") {
		fmt.Println("== Figure 5: Query Latency (normalized to slowest P99 per workload) ==")
		fmt.Printf("%-16s %-10s %8s %8s %8s %8s %12s %14s\n", "Workload", "Method", "P50", "P75", "P90", "P99", "total(s)", "plan-time(s)")
		for _, ds := range datasets {
			rows, err := envs[ds].Figure5()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Printf("%-16s %-10s %8.3f %8.3f %8.3f %8.3f %12.2f %14.2f\n",
					r.Workload, r.Method, r.N50, r.N75, r.N90, r.N99, r.TotalSeconds, r.EstimatorPlanSeconds)
			}
		}
		fmt.Println()
	}
	if want("fig6a") {
		fmt.Println("== Figure 6a: Read I/Os across STATS scales (blocks) ==")
		scales := []float64{cfg.Scale * 0.5, cfg.Scale, cfg.Scale * 2, cfg.Scale * 4}
		rows, err := bench.Figure6a(cfg, scales)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-10s %12s %14s\n", "Scale", "Method", "Blocks", "Bytes(MB)")
		for _, r := range rows {
			fmt.Printf("%-8.3f %-10s %12d %14.1f\n", r.Scale, r.Method, r.Blocks, float64(r.Bytes)/(1<<20))
		}
		fmt.Println()
	}
	if want("fig6b") {
		fmt.Println("== Figure 6b: Hash-table resizing frequency across AEOLUS scales ==")
		scales := []float64{cfg.Scale * 0.5, cfg.Scale, cfg.Scale * 2, cfg.Scale * 4}
		rows, err := bench.Figure6b(cfg, scales)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-12s %10s\n", "Scale", "Method", "Resizes")
		for _, r := range rows {
			fmt.Printf("%-8.3f %-12s %10d\n", r.Scale, r.Method, r.Resizes)
		}
		fmt.Println()
	}
	if want("fig7") {
		fmt.Println("== Figure 7: Q-Error distributions over hybrid workloads ==")
		fmt.Printf("%-16s %-10s %8s %8s %8s %8s %8s %10s\n", "Workload", "Method", "min", "P25", "P50", "P75", "P90", "max")
		for _, ds := range datasets {
			rows, err := envs[ds].Figure7()
			if err != nil {
				return err
			}
			for _, r := range rows {
				s := r.Summary
				fmt.Printf("%-16s %-10s %8.2f %8.2f %8.2f %8.2f %8.2f %10.2f\n",
					envs[ds].Hybrid.Name, r.Method, s.Min, s.P25, s.P50, s.P75, s.P90, s.Max)
			}
		}
		fmt.Println()
	}
	return nil
}

func printQErrorTable(datasets []string, envs map[string]*bench.Env, f func(*bench.Env) ([]bench.QErrorRow, error)) error {
	fmt.Printf("%-10s %-8s %10s %10s %10s\n", "CardEst", "Dataset", "50%", "90%", "99%")
	for _, ds := range datasets {
		rows, err := f(envs[ds])
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-10s %-8s %10.2f %10.2f %10.2f\n",
				r.Kind+" Est.", r.Dataset, r.Summary.P50, r.Summary.P90, r.Summary.P99)
		}
	}
	fmt.Println()
	return nil
}
