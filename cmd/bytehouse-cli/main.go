// Command bytehouse-cli is an interactive SQL shell over the reproduction
// warehouse with ByteCard driving the optimizer. Each result is followed by
// the execution metrics (reader strategies, block I/O, hash resizes) so the
// optimizer's decisions are visible.
//
//	bytehouse-cli -dataset imdb -scale 0.02
//	bytehouse> SELECT COUNT(*) FROM title WHERE production_year > 2010;
//	bytehouse> \estimate SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id;
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"bytecard"
	"bytecard/internal/rbx"
)

func main() {
	var (
		dataset     = flag.String("dataset", "toy", "dataset: imdb, stats, aeolus, timeseries, toy")
		scale       = flag.Float64("scale", 0.05, "dataset scale factor")
		seed        = flag.Int64("seed", 1, "generator seed")
		estimator   = flag.String("estimator", "bytecard", "optimizer estimator: bytecard, sketch, sample, heuristic")
		parallelism = flag.Int("parallelism", 0, "executor worker count (0 = GOMAXPROCS)")
		residualFl  = flag.Bool("residual", false, "enable the online residual corrector (executed truth feeds back into estimates)")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *estimator, *parallelism, *residualFl); err != nil {
		fmt.Fprintln(os.Stderr, "bytehouse-cli:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed int64, estimator string, parallelism int, residualOn bool) error {
	fmt.Printf("opening %s (scale %.3g) and training ByteCard models...\n", dataset, scale)
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: dataset, Scale: scale, Seed: seed, Estimator: estimator, Parallelism: parallelism,
		ResidualCorrection: residualOn,
		RBX:                rbx.TrainConfig{Columns: 200, Epochs: 8, MaxPop: 30000, Seed: seed + 9},
	})
	if err != nil {
		return err
	}
	fmt.Printf("ready: %d tables, %d rows. Commands: \\tables, \\estimate <sql>, \\ndv <sql>, \\explain <sql>, \\metrics, \\cache [flush], \\quit\n",
		len(sys.Dataset.DB.TableNames()), sys.Dataset.DB.TotalRows())

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("bytehouse> ")
		if !scanner.Scan() {
			return scanner.Err()
		}
		line := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(scanner.Text()), ";"))
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return nil
		case line == `\tables`:
			for _, name := range sys.Dataset.DB.TableNames() {
				t := sys.Dataset.DB.Table(name)
				fmt.Printf("  %-18s %8d rows  (%s)\n", name, t.NumRows(), strings.Join(t.ColumnNames(), ", "))
			}
		case strings.HasPrefix(line, `\estimate `):
			sql := strings.TrimPrefix(line, `\estimate `)
			est, err := sys.EstimateCount(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			truth, err := sys.TrueCount(sql)
			if err != nil {
				fmt.Println("error computing truth:", err)
				continue
			}
			fmt.Printf("estimate: %.1f   truth: %.0f   q-error: %.2f\n", est, truth, qerr(est, truth))
		case strings.HasPrefix(line, `\ndv `):
			sql := strings.TrimPrefix(line, `\ndv `)
			est, err := sys.EstimateNDV(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("NDV estimate: %.1f\n", est)
		case strings.HasPrefix(line, `\explain `):
			sql := strings.TrimPrefix(line, `\explain `)
			plan, err := sys.Explain(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(plan)
			for _, s := range plan.Trace {
				fmt.Println("  trace:", s.String())
			}
		case line == `\cache`:
			b, err := json.MarshalIndent(sys.Infer.Admin().CacheStats(), "", "  ")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(string(b))
		case line == `\cache flush`:
			fmt.Printf("flushed %d cached entries\n", sys.Infer.Admin().FlushCaches())
		case line == `\metrics`:
			b, err := json.MarshalIndent(sys.Metrics(), "", "  ")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(string(b))
		default:
			res, err := sys.Run(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(strings.Join(res.Columns, " | "))
			limit := len(res.Rows)
			if limit > 25 {
				limit = 25
			}
			for _, row := range res.Rows[:limit] {
				cells := make([]string, len(row))
				for i, d := range row {
					cells[i] = d.String()
				}
				fmt.Println(strings.Join(cells, " | "))
			}
			if len(res.Rows) > limit {
				fmt.Printf("... (%d rows total)\n", len(res.Rows))
			}
			m := res.Metrics
			read, skipped := m.IO.BlocksRead(), m.IO.BlocksSkipped()
			ratio := 0.0
			if read+skipped > 0 {
				ratio = float64(skipped) / float64(read+skipped)
			}
			fmt.Printf("-- %d rows; plan %.2fms exec %.2fms; %d workers; %d blocks read, %d skipped (%.0f%% skip); readers %v; agg resizes %d\n",
				len(res.Rows), float64(m.PlanDuration.Microseconds())/1000,
				float64(m.ExecDuration.Microseconds())/1000, m.ParallelWorkers,
				read, skipped, ratio*100, m.ReaderStrategy, m.HashResizes)
		}
	}
}

func qerr(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}
