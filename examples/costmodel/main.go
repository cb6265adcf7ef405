// Costmodel: demonstrates the paper's "future integration" — a
// query-driven learned cost model trained on runtime traces. The trained
// model predicts per-plan latency, the input for admission control and
// workload management. No planner consumes that prediction yet, so the
// model is trained and evaluated here, in process, rather than deployed
// through the Inference Engine.
//
//	go run ./examples/costmodel
package main

import (
	"fmt"
	"log"
	"math"

	"bytecard"
	"bytecard/internal/cardinal"
	"bytecard/internal/costmodel"
	"bytecard/internal/sqlparse"
)

func main() {
	fmt.Println("Opening the IMDB-like dataset...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "imdb",
		Scale:   0.03,
		Seed:    6,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Collect runtime traces: the warehouse logs plan features and
	// measured latencies for every executed query.
	w, err := sys.Workload(11)
	if err != nil {
		log.Fatal(err)
	}
	var sqls []string
	for _, q := range w.Queries {
		sqls = append(sqls, q.SQL)
	}
	fmt.Printf("Collecting runtime traces from %d workload queries...\n", len(sqls))
	traces, err := costmodel.CollectTraces(sys.Engine, sqls)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the cost model on most of the traces.
	train, test := traces[:80], traces[80:]
	model, err := costmodel.Train(train, costmodel.TrainConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cost model trained on %d traces (%.0f KB).\n\n",
		len(train), float64(model.SizeBytes())/1024)

	// 3. Evaluate held-out prediction quality against a mean baseline.
	var meanLog float64
	for _, tr := range train {
		meanLog += math.Log1p(tr.Millis)
	}
	meanLog /= float64(len(train))
	var modelErr, baseErr float64
	for _, tr := range test {
		y := math.Log1p(tr.Millis)
		p := math.Log1p(model.PredictMillis(tr.Features))
		modelErr += (p - y) * (p - y)
		baseErr += (meanLog - y) * (meanLog - y)
	}
	fmt.Printf("Held-out log-latency MSE: model %.3f vs mean-baseline %.3f (%d queries)\n\n",
		modelErr/float64(len(test)), baseErr/float64(len(test)), len(test))

	// 4. Predict the cost of an unseen plan before running it.
	sql := "SELECT COUNT(*) FROM title, cast_info, movie_keyword WHERE cast_info.movie_id = title.id AND movie_keyword.movie_id = title.id AND title.production_year >= 2000"
	q, err := sys.Engine.Analyze(sqlparse.MustParse(sql))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Engine.Plan(q)
	if err != nil {
		log.Fatal(err)
	}
	predicted := model.PredictPlan(plan)
	res, err := sys.Engine.Execute(plan)
	if err != nil {
		log.Fatal(err)
	}
	actual := float64(res.Metrics.ExecDuration.Microseconds()) / 1000
	fmt.Printf("Q: %s\n   predicted %.2f ms, measured %.2f ms (q-error %.2f)\n",
		sql, predicted, actual, cardinal.QError(math.Max(predicted, 0.001), math.Max(actual, 0.001)))
}
