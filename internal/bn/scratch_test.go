package bn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bytecard/internal/expr"
)

// trainWide trains a model over nCols loosely correlated categorical
// columns — wide enough that per-node allocation costs dominate the
// fresh-allocation baseline.
func trainWide(t *testing.T, nCols, nRows int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	cols := make([][]float64, nCols)
	names := make([]string, nCols)
	for c := range cols {
		cols[c] = make([]float64, nRows)
		names[c] = fmt.Sprintf("c%d", c)
	}
	for r := 0; r < nRows; r++ {
		base := float64(rng.Intn(5))
		for c := range cols {
			v := base
			if rng.Float64() > 0.7 {
				v = float64(rng.Intn(5))
			}
			cols[c][r] = v
		}
	}
	m, err := Train(TrainConfig{Table: "wide", ColNames: names, Sample: cols, Laplace: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildEvidence compiles a deterministic spread of soft-evidence vectors
// over the model's columns (one constrained column per variant).
func buildEvidence(m *Model) [][][]float64 {
	var out [][][]float64
	for i := range m.Cols {
		w := make([][]float64, len(m.Cols))
		v := make([]float64, m.Cols[i].Bins())
		for b := range v {
			if b%2 == 0 {
				v[b] = 1
			} else {
				v[b] = 0.25
			}
		}
		w[i] = v
		out = append(out, w)
	}
	return out
}

// TestProbMatchesNoScratch pins the pooled fast path to the
// fresh-allocation reference bit-for-bit: both run the identical upward
// pass, so even float non-associativity cannot separate them.
func TestProbMatchesNoScratch(t *testing.T) {
	m := trainCorrelated(t, 4000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	for vi, w := range buildEvidence(m) {
		got := ctx.Prob(w)
		want := ctx.ProbNoScratch(w)
		if got != want {
			t.Fatalf("variant %d: pooled Prob=%v, ProbNoScratch=%v", vi, got, want)
		}
		// Re-run to catch stale state leaking through the recycled scratch.
		if again := ctx.Prob(w); again != want {
			t.Fatalf("variant %d: second pooled Prob=%v, want %v", vi, again, want)
		}
	}
}

// TestMarginalsScratchReuse runs Marginals-backed APIs interleaved and
// verifies results are stable across scratch reuse (accumulating buffers
// must be cleared between checkouts).
func TestMarginalsScratchReuse(t *testing.T) {
	m := trainCorrelated(t, 4000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	evidence := buildEvidence(m)
	type snap struct {
		pe     float64
		belief [][]float64
		pair   [][]float64
	}
	reference := make([]snap, len(evidence))
	for i, w := range evidence {
		pe, belief, pair := ctx.Marginals(w)
		reference[i] = snap{pe, belief, pair}
	}
	// Interleave Prob/JointWithColumns (pooled) with fresh Marginals calls;
	// every Marginals result must match its first-run reference exactly.
	for round := 0; round < 3; round++ {
		for i, w := range evidence {
			ctx.Prob(w)
			if _, err := ctx.JointWithColumns(nil, []string{m.Cols[0].Name}); err != nil {
				t.Fatal(err)
			}
			cons := []expr.Constraint{eqConstraint(m.Cols[i%len(m.Cols)].Name, 1)}
			if _, err := ctx.JointWithColumns(cons, []string{m.Cols[0].Name, m.Cols[len(m.Cols)-1].Name}); err != nil {
				t.Fatal(err)
			}
			pe, belief, pair := ctx.Marginals(w)
			if pe != reference[i].pe {
				t.Fatalf("round %d variant %d: pe=%v, want %v", round, i, pe, reference[i].pe)
			}
			for n := range belief {
				for b := range belief[n] {
					if belief[n][b] != reference[i].belief[n][b] {
						t.Fatalf("round %d variant %d: belief[%d][%d] drifted", round, i, n, b)
					}
				}
				for k := range pair[n] {
					if pair[n][k] != reference[i].pair[n][k] {
						t.Fatalf("round %d variant %d: pair[%d][%d] drifted", round, i, n, k)
					}
				}
			}
		}
	}
}

// TestMarginalsResultsSurviveLaterCalls guards the escape contract: the
// tables Marginals returns are owned by the caller and must not be
// overwritten by subsequent inference on the same Context.
func TestMarginalsResultsSurviveLaterCalls(t *testing.T) {
	m := trainCorrelated(t, 2000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	evidence := buildEvidence(m)
	pe, belief, _ := ctx.Marginals(evidence[0])
	root := m.Root()
	saved := append([]float64(nil), belief[root]...)
	for i := 0; i < 50; i++ {
		ctx.Prob(evidence[i%len(evidence)])
		ctx.Marginals(evidence[(i+1)%len(evidence)])
	}
	for b := range saved {
		if belief[root][b] != saved[b] {
			t.Fatalf("belief[root][%d] overwritten after later calls (pe=%v)", b, pe)
		}
	}
}

// TestProbAllocsPerRun is the ISSUE's regression gate: the pooled path
// must allocate nothing in steady state, and at least 5x less than the
// fresh-allocation baseline.
func TestProbAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are only meaningful without -race")
	}
	m := trainWide(t, 8, 4000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	w := buildEvidence(m)[0]
	ctx.Prob(w) // warm the pool
	pooled := testing.AllocsPerRun(200, func() { ctx.Prob(w) })
	baseline := testing.AllocsPerRun(200, func() { ctx.ProbNoScratch(w) })
	t.Logf("Prob allocs/op: pooled=%.1f baseline=%.1f", pooled, baseline)
	if pooled != 0 {
		t.Errorf("pooled Prob allocates %.1f/op, want 0", pooled)
	}
	if baseline < 5*math.Max(pooled, 1) {
		t.Errorf("baseline allocates %.1f/op — less than 5x the pooled path (%.1f/op)", baseline, pooled)
	}
}

// TestSelectivityConjAllocs bounds the constraint API: only the compiled
// per-constraint weight vectors may allocate, never the BP buffers.
func TestSelectivityConjAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are only meaningful without -race")
	}
	m := trainCorrelated(t, 4000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	cons := []expr.Constraint{eqConstraint("a", 1), rangeConstraint("c", expr.OpLe, 1)}
	if _, err := ctx.SelectivityConj(cons); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ctx.SelectivityConj(cons); err != nil {
			t.Fatal(err)
		}
	})
	// One Weights vector per constraint; allow a small constant for
	// interface headers, nothing proportional to node count or bins.
	if allocs > float64(len(cons))+2 {
		t.Errorf("SelectivityConj allocates %.1f/op, want <= %d", allocs, len(cons)+2)
	}
}

// TestJointWithColumnsAllocs bounds the bucket-vector API: the returned
// vectors (one header slice, one backing array) and the compiled
// per-constraint weight vectors allocate, nothing else.
func TestJointWithColumnsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are only meaningful without -race")
	}
	m := trainWide(t, 8, 4000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	cons := []expr.Constraint{eqConstraint("c2", 1), rangeConstraint("c5", expr.OpLe, 2)}
	cols := []string{"c0", "c3", "c7"}
	if _, err := ctx.JointWithColumns(cons, cols); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ctx.JointWithColumns(cons, cols); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(len(cons) + 2); allocs > want {
		t.Errorf("JointWithColumns allocates %.1f/op, want <= %.0f", allocs, want)
	}
	free := testing.AllocsPerRun(200, func() {
		if _, err := ctx.JointWithColumns(nil, cols); err != nil {
			t.Fatal(err)
		}
	})
	if free > 2 {
		t.Errorf("evidence-free JointWithColumns allocates %.1f/op, want <= 2", free)
	}
}

// TestConcurrentScratchParity hammers one shared Context from many
// goroutines (run under -race) and checks every result against the
// fresh-allocation reference computed up front.
func TestConcurrentScratchParity(t *testing.T) {
	m := trainCorrelated(t, 4000)
	ctx, err := m.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	evidence := buildEvidence(m)
	want := make([]float64, len(evidence))
	for i, w := range evidence {
		want[i] = ctx.ProbNoScratch(w)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 300; it++ {
				i := (g + it) % len(evidence)
				if got := ctx.Prob(evidence[i]); got != want[i] {
					select {
					case errs <- fmt.Errorf("goroutine %d iter %d: got %v, want %v", g, it, got, want[i]):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestTrainWorkersDeterministic checks structure and parameters are
// identical at any worker count (the MI cells are independent; everything
// order-sensitive stays serial).
func TestTrainWorkersDeterministic(t *testing.T) {
	sample := sampleCorrelated(6000, 11)
	train := func(workers int) *Model {
		m, err := Train(TrainConfig{
			Table:    "t",
			ColNames: []string{"a", "b", "c"},
			Sample:   sample,
			Laplace:  0.1,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m4 := train(1), train(4)
	if fmt.Sprint(m1.Parent) != fmt.Sprint(m4.Parent) {
		t.Fatalf("structure differs: %v vs %v", m1.Parent, m4.Parent)
	}
	for b := range m1.Prior {
		if m1.Prior[b] != m4.Prior[b] {
			t.Fatalf("prior[%d] differs", b)
		}
	}
	for i := range m1.CPT {
		for k := range m1.CPT[i] {
			if m1.CPT[i][k] != m4.CPT[i][k] {
				t.Fatalf("CPT[%d][%d] differs", i, k)
			}
		}
	}
	if m1.StructureSeconds <= 0 || m1.ParamSeconds < 0 {
		t.Fatalf("stage timings not recorded: structure=%v param=%v", m1.StructureSeconds, m1.ParamSeconds)
	}
}
