package bn

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"bytecard/internal/par"
)

// TrainConfig drives Train. Sample holds the training rows column-major:
// Sample[c][r] is the numeric image of row r in column c. Missing (optional,
// same shape) marks cells whose value is unknown; parameter learning then
// runs EM over the tree.
type TrainConfig struct {
	Table    string
	ColNames []string
	Sample   [][]float64
	Missing  [][]bool
	// Rows is the population size the sample represents (defaults to the
	// sample size).
	Rows float64
	// MaxBins bounds per-column domains (default DefaultMaxBins).
	MaxBins int
	// Laplace is the per-cell smoothing pseudo-count. Zero selects
	// adaptive smoothing (one pseudo-row per CPT row), which keeps wide
	// join-bucket CPTs from shrinking toward uniform.
	Laplace float64
	// EMIterations bounds EM sweeps when Missing is present (default 5).
	EMIterations int
	// ForcedBounds pins a column's discretization to explicit bin bounds
	// (FactorJoin aligns join-key columns with its join buckets this way).
	ForcedBounds map[string][]float64
	// ForcedBinNDV overrides the per-bin distinct counts of a
	// forced-bounds column with externally computed (exact) values.
	ForcedBinNDV map[string][]float64
	// Workers bounds structure-learning parallelism (the O(cols²) pairwise
	// MI matrix). Zero resolves to GOMAXPROCS. The learned model is identical at any worker count: each
	// MI cell is an independent computation and the spanning tree, root
	// choice, and parameter learning stay serial.
	Workers int
}

// Train learns structure (Chow-Liu) and parameters (ML counts, or EM when
// values are missing) from the sample.
func Train(cfg TrainConfig) (*Model, error) {
	start := time.Now()
	nCols := len(cfg.Sample)
	if nCols == 0 || len(cfg.ColNames) != nCols {
		return nil, errors.New("bn: sample and column names must align and be non-empty")
	}
	nRows := len(cfg.Sample[0])
	if nRows == 0 {
		return nil, errors.New("bn: empty sample")
	}
	for c := range cfg.Sample {
		if len(cfg.Sample[c]) != nRows {
			return nil, fmt.Errorf("bn: column %d has %d rows, want %d", c, len(cfg.Sample[c]), nRows)
		}
		if cfg.Missing != nil && len(cfg.Missing[c]) != nRows {
			return nil, fmt.Errorf("bn: missing mask column %d misshaped", c)
		}
	}
	if cfg.MaxBins <= 0 {
		cfg.MaxBins = DefaultMaxBins
	}
	if cfg.Rows <= 0 {
		cfg.Rows = float64(nRows)
	}

	m := &Model{Table: cfg.Table, Rows: cfg.Rows}
	for c := 0; c < nCols; c++ {
		cm, err := buildColumnModel(cfg.ColNames[c], cfg.Sample[c], missingCol(cfg.Missing, c), cfg)
		if err != nil {
			return nil, err
		}
		m.Cols = append(m.Cols, cm)
	}

	// Discretize the sample once; -1 marks missing or out-of-domain.
	bins := make([][]int, nCols)
	hasMissing := false
	for c := 0; c < nCols; c++ {
		bins[c] = make([]int, nRows)
		miss := missingCol(cfg.Missing, c)
		for r := 0; r < nRows; r++ {
			if miss != nil && miss[r] {
				bins[c][r] = -1
				hasMissing = true
				continue
			}
			bins[c][r] = m.Cols[c].BinOf(cfg.Sample[c][r])
			if bins[c][r] < 0 {
				hasMissing = true
			}
		}
	}

	structStart := time.Now()
	m.Parent = chowLiu(m, bins, par.TrainWorkers(cfg.Workers))
	m.StructureSeconds = time.Since(structStart).Seconds()
	paramStart := time.Now()
	if err := learnParameters(m, bins, cfg, hasMissing); err != nil {
		return nil, err
	}
	m.ParamSeconds = time.Since(paramStart).Seconds()
	m.TrainSeconds = time.Since(start).Seconds()
	return m, m.Validate()
}

func missingCol(missing [][]bool, c int) []bool {
	if missing == nil {
		return nil
	}
	return missing[c]
}

// buildColumnModel chooses categorical or binned discretization.
func buildColumnModel(name string, values []float64, miss []bool, cfg TrainConfig) (ColumnModel, error) {
	cm := ColumnModel{Name: name}
	if forced, ok := cfg.ForcedBounds[name]; ok {
		if len(forced) < 2 || !sort.Float64sAreSorted(forced) {
			return cm, fmt.Errorf("bn: forced bounds for %s must be >=2 ascending values", name)
		}
		cm.Bounds = append([]float64(nil), forced...)
		if ndv, ok := cfg.ForcedBinNDV[name]; ok && len(ndv) == len(forced)-1 {
			cm.BinNDV = append([]float64(nil), ndv...)
		} else {
			cm.BinNDV = binNDVs(values, miss, cm.Bounds, cfg.Rows, float64(len(values)))
		}
		return cm, nil
	}
	counts := map[float64]int{}
	for r, v := range values {
		if miss != nil && miss[r] {
			continue
		}
		counts[v]++
	}
	if len(counts) == 0 {
		return cm, fmt.Errorf("bn: column %s has no observed values", name)
	}
	if len(counts) <= cfg.MaxBins {
		cm.Categorical = true
		for v := range counts {
			cm.Values = append(cm.Values, v)
		}
		sort.Float64s(cm.Values)
		return cm, nil
	}
	// Equi-height bounds over distinct values with strictly increasing
	// boundaries; bin i covers [Bounds[i], Bounds[i+1]), last bin closed.
	distinct := make([]float64, 0, len(counts))
	for v := range counts {
		distinct = append(distinct, v)
	}
	sort.Float64s(distinct)
	var observed float64
	for _, v := range distinct {
		observed += float64(counts[v])
	}
	target := observed / float64(cfg.MaxBins)
	bounds := []float64{distinct[0]}
	var acc float64
	for _, v := range distinct[:len(distinct)-1] {
		acc += float64(counts[v])
		if acc >= target {
			bounds = append(bounds, nextAfter(v))
			acc = 0
		}
	}
	bounds = append(bounds, distinct[len(distinct)-1])
	// Deduplicate any accidental equal boundaries.
	dedup := bounds[:1]
	for _, b := range bounds[1:] {
		if b > dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) < 2 {
		dedup = append(dedup, dedup[0]+1)
	}
	cm.Bounds = dedup
	cm.BinNDV = binNDVs(values, miss, cm.Bounds, cfg.Rows, observed)
	return cm, nil
}

func nextAfter(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

// binNDVs estimates the population distinct count per bin from the sample
// using a GEE-style singleton scale-up.
func binNDVs(values []float64, miss []bool, bounds []float64, popRows, sampleRows float64) []float64 {
	nBins := len(bounds) - 1
	perBin := make([]map[float64]int, nBins)
	for i := range perBin {
		perBin[i] = map[float64]int{}
	}
	cm := ColumnModel{Bounds: bounds}
	for r, v := range values {
		if miss != nil && miss[r] {
			continue
		}
		if b := cm.BinOf(v); b >= 0 {
			perBin[b][v]++
		}
	}
	scale := 1.0
	if sampleRows > 0 && popRows > sampleRows {
		scale = math.Sqrt(popRows / sampleRows)
	}
	out := make([]float64, nBins)
	for i, counts := range perBin {
		var f1, rest int
		for _, c := range counts {
			if c == 1 {
				f1++
			} else {
				rest++
			}
		}
		est := scale*float64(f1) + float64(rest)
		if est < 1 {
			est = 1
		}
		out[i] = est
	}
	return out
}

// chowLiu learns the maximum-spanning tree over pairwise mutual
// information and returns the parent array (root has parent -1, chosen as
// the node with the largest total MI — the "root identification" step).
// The MI matrix — the O(cols²·rows) bulk of structure learning — fans out
// across workers; each cell is written by exactly one goroutine and read
// only after the pool drains, so the result is worker-count independent.
func chowLiu(m *Model, bins [][]int, workers int) []int {
	n := len(m.Cols)
	if n == 1 {
		return []int{-1}
	}
	mi := make([][]float64, n)
	for i := range mi {
		mi[i] = make([]float64, n)
	}
	type pairIdx struct{ i, j int }
	pairs := make([]pairIdx, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pairIdx{i, j})
		}
	}
	par.Do(len(pairs), workers, func(k int) {
		p := pairs[k]
		v := mutualInformation(bins[p.i], bins[p.j], m.Cols[p.i].Bins(), m.Cols[p.j].Bins())
		mi[p.i][p.j], mi[p.j][p.i] = v, v
	})
	// Prim's algorithm for the maximum spanning tree.
	inTree := make([]bool, n)
	bestEdge := make([]int, n)
	bestW := make([]float64, n)
	for i := range bestW {
		bestW[i] = math.Inf(-1)
		bestEdge[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestW[j] = mi[0][j]
		bestEdge[j] = 0
	}
	type edge struct{ a, b int }
	var edges []edge
	for len(edges) < n-1 {
		pick, w := -1, math.Inf(-1)
		for j := 0; j < n; j++ {
			if !inTree[j] && bestW[j] > w {
				pick, w = j, bestW[j]
			}
		}
		inTree[pick] = true
		edges = append(edges, edge{bestEdge[pick], pick})
		for j := 0; j < n; j++ {
			if !inTree[j] && mi[pick][j] > bestW[j] {
				bestW[j] = mi[pick][j]
				bestEdge[j] = pick
			}
		}
	}
	// Root: the node with maximum total MI, BFS to orient edges.
	root, best := 0, math.Inf(-1)
	for i := 0; i < n; i++ {
		var total float64
		for j := 0; j < n; j++ {
			total += mi[i][j]
		}
		if total > best {
			root, best = i, total
		}
	}
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if parent[nb] == -2 {
				parent[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return parent
}

// mutualInformation computes MI over rows where both columns are observed.
func mutualInformation(a, b []int, binsA, binsB int) float64 {
	joint := make([]float64, binsA*binsB)
	pa := make([]float64, binsA)
	pb := make([]float64, binsB)
	var total float64
	for r := range a {
		if a[r] < 0 || b[r] < 0 {
			continue
		}
		joint[a[r]*binsB+b[r]]++
		pa[a[r]]++
		pb[b[r]]++
		total++
	}
	if total < 2 {
		return 0
	}
	var mi float64
	for i := 0; i < binsA; i++ {
		for j := 0; j < binsB; j++ {
			p := joint[i*binsB+j] / total
			if p == 0 {
				continue
			}
			mi += p * math.Log(p/((pa[i]/total)*(pb[j]/total)))
		}
	}
	return mi
}

// learnParameters estimates Prior and CPTs from complete rows (plus EM
// sweeps over incomplete rows when present).
func learnParameters(m *Model, bins [][]int, cfg TrainConfig, hasMissing bool) error {
	root := m.Root()
	nRows := len(bins[0])
	rootCnt := make([]float64, m.Cols[root].Bins())
	edgeCnt := make([][]float64, len(m.Cols))
	for i := range m.Cols {
		if i == root {
			continue
		}
		edgeCnt[i] = make([]float64, m.Cols[m.Parent[i]].Bins()*m.Cols[i].Bins())
	}
	accumulate := func(weight float64, row int) {
		if b := bins[root][row]; b >= 0 {
			rootCnt[b] += weight
		}
		for i := range m.Cols {
			if i == root {
				continue
			}
			pb, cb := bins[m.Parent[i]][row], bins[i][row]
			if pb >= 0 && cb >= 0 {
				edgeCnt[i][pb*m.Cols[i].Bins()+cb] += weight
			}
		}
	}
	for r := 0; r < nRows; r++ {
		accumulate(1, r)
	}
	normalize(m, rootCnt, edgeCnt, cfg.Laplace)

	if !hasMissing {
		return nil
	}
	iters := cfg.EMIterations
	if iters <= 0 {
		iters = 5
	}
	// EM: complete rows keep their hard counts; incomplete rows contribute
	// expected counts from tree belief propagation under the current
	// parameters.
	var incomplete []int
	for r := 0; r < nRows; r++ {
		for c := range bins {
			if bins[c][r] < 0 {
				incomplete = append(incomplete, r)
				break
			}
		}
	}
	if len(incomplete) == 0 {
		return nil
	}
	for it := 0; it < iters; it++ {
		ctx, err := m.NewContext()
		if err != nil {
			return err
		}
		rootE := make([]float64, len(rootCnt))
		edgeE := make([][]float64, len(edgeCnt))
		for i := range edgeCnt {
			if edgeCnt[i] != nil {
				edgeE[i] = make([]float64, len(edgeCnt[i]))
			}
		}
		// One weight buffer per column, re-filled per row, and one pooled
		// scratch for the whole sweep: the E-step reads sc.belief/sc.pair
		// directly between marginals calls instead of allocating fresh
		// tables per incomplete row.
		weights := make([][]float64, len(m.Cols))
		for c := range m.Cols {
			weights[c] = make([]float64, m.Cols[c].Bins())
		}
		sc := ctx.getScratch()
		for _, r := range incomplete {
			for c := range m.Cols {
				w := weights[c]
				if bins[c][r] >= 0 {
					clearFloats(w)
					w[bins[c][r]] = 1
				} else {
					for k := range w {
						w[k] = 1
					}
				}
			}
			pe := ctx.marginals(sc, weights)
			if pe <= 0 {
				continue
			}
			for b, v := range sc.belief[root] {
				rootE[b] += v / pe
			}
			for i := range m.Cols {
				if i == root || sc.pair[i] == nil {
					continue
				}
				for k, v := range sc.pair[i] {
					edgeE[i][k] += v / pe
				}
			}
		}
		ctx.putScratch(sc)
		// Recompute complete-row hard counts and merge expectations.
		for i := range rootCnt {
			rootCnt[i] = 0
		}
		for i := range edgeCnt {
			if edgeCnt[i] != nil {
				clearFloats(edgeCnt[i])
			}
		}
		for r := 0; r < nRows; r++ {
			accumulate(1, r)
		}
		for b := range rootCnt {
			rootCnt[b] += rootE[b]
		}
		for i := range edgeCnt {
			if edgeCnt[i] == nil {
				continue
			}
			for k := range edgeCnt[i] {
				edgeCnt[i][k] += edgeE[i][k]
			}
		}
		normalize(m, rootCnt, edgeCnt, cfg.Laplace)
	}
	return nil
}

func clearFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// normalize turns counts into smoothed distributions on the model.
func normalize(m *Model, rootCnt []float64, edgeCnt [][]float64, laplace float64) {
	root := m.Root()
	m.Prior = distFromCounts(rootCnt, laplace)
	m.CPT = make([][]float64, len(m.Cols))
	for i := range m.Cols {
		if i == root {
			continue
		}
		pb, cb := m.Cols[m.Parent[i]].Bins(), m.Cols[i].Bins()
		cpt := make([]float64, pb*cb)
		for a := 0; a < pb; a++ {
			row := distFromCounts(edgeCnt[i][a*cb:(a+1)*cb], laplace)
			copy(cpt[a*cb:(a+1)*cb], row)
		}
		m.CPT[i] = cpt
	}
}

func distFromCounts(cnt []float64, laplace float64) []float64 {
	if laplace <= 0 {
		// Adaptive smoothing: a fifth of a pseudo-row spread across the
		// domain — enough to avoid hard zeros, light enough that wide
		// CPTs (join-bucket parents) are not shrunk toward uniform and
		// high-fanout buckets do not accumulate phantom mass.
		laplace = 0.2 / float64(len(cnt))
	}
	out := make([]float64, len(cnt))
	var total float64
	for _, c := range cnt {
		total += c
	}
	denom := total + laplace*float64(len(cnt))
	for i, c := range cnt {
		out[i] = (c + laplace) / denom
	}
	return out
}
