// Package workload generates the evaluation workloads: JOB-Hybrid over the
// IMDB-like dataset, STATS-Hybrid over the STATS-like dataset, and
// AEOLUS-Online over the business dataset — each a seeded mix of
// multi-join COUNT queries and aggregation queries whose published
// statistics (query counts, joined-table ranges, group-by key ranges) match
// the paper's Table 5 — plus the single-table COUNT and COUNT-DISTINCT
// probe workloads behind the Table 1/2 Q-error reports.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bytecard/internal/catalog"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// Kind classifies generated queries.
type Kind int

// Query kinds.
const (
	// KindCount is a COUNT(*) select–project–join query.
	KindCount Kind = iota
	// KindAgg is a GROUP BY aggregation query.
	KindAgg
	// KindNDV is a COUNT(DISTINCT …) probe.
	KindNDV
)

// Query is one generated query.
type Query struct {
	SQL  string
	Kind Kind
	// NumTables counts joined tables; NumGroupKeys counts GROUP BY keys.
	NumTables    int
	NumGroupKeys int
	NumPreds     int
	// Template canonically identifies the table/join combination.
	Template string
}

// Workload is a named query set over one dataset.
type Workload struct {
	Name    string
	Dataset string
	Queries []Query
}

// GenConfig controls generation.
type GenConfig struct {
	Name         string
	NumQueries   int
	MinTables    int
	MaxTables    int
	AggFraction  float64
	MinGroupKeys int
	MaxGroupKeys int
	// MaxPreds bounds filter predicates per query (default 4).
	MaxPreds int
	Seed     int64
}

// joinEdge is one usable join relationship.
type joinEdge struct {
	a, b   string // table names
	ca, cb string
}

// columnProfile caches quick per-column statistics for generation choices.
type columnProfile struct {
	name string
	kind types.Kind
	ndv  int
}

type generator struct {
	ds    *datagen.Dataset
	rng   *rand.Rand
	edges []joinEdge
	adj   map[string][]joinEdge
	// predCols / groupCols list usable columns per table.
	predCols  map[string][]columnProfile
	groupCols map[string][]columnProfile
	aggCols   map[string][]columnProfile
}

func newGenerator(ds *datagen.Dataset, seed int64) (*generator, error) {
	g := &generator{
		ds:        ds,
		rng:       rand.New(rand.NewSource(seed)),
		adj:       map[string][]joinEdge{},
		predCols:  map[string][]columnProfile{},
		groupCols: map[string][]columnProfile{},
		aggCols:   map[string][]columnProfile{},
	}
	joinCols := map[catalog.ColumnRef]bool{}
	for _, p := range ds.Schema.JoinPatterns() {
		e := joinEdge{a: p.Left.Table, ca: p.Left.Column, b: p.Right.Table, cb: p.Right.Column}
		g.edges = append(g.edges, e)
		g.adj[e.a] = append(g.adj[e.a], e)
		g.adj[e.b] = append(g.adj[e.b], e)
		joinCols[p.Left] = true
		joinCols[p.Right] = true
	}
	for _, name := range ds.DB.TableNames() {
		t := ds.DB.Table(name)
		for i := 0; i < t.NumCols(); i++ {
			col := t.Col(i)
			if !col.Kind().Scalar() {
				continue
			}
			if joinCols[catalog.ColumnRef{Table: name, Column: col.Name()}] || col.Name() == "id" {
				continue // keys make degenerate filters and group keys
			}
			prof := columnProfile{name: col.Name(), kind: col.Kind(), ndv: quickNDV(t, col.Name(), 400)}
			g.predCols[name] = append(g.predCols[name], prof)
			if prof.ndv >= 2 {
				g.groupCols[name] = append(g.groupCols[name], prof)
			}
			if col.Kind() != types.KindString {
				g.aggCols[name] = append(g.aggCols[name], prof)
			}
		}
	}
	if len(g.predCols) == 0 {
		return nil, fmt.Errorf("workload: dataset %s has no usable predicate columns", ds.Name)
	}
	return g, nil
}

// quickNDV estimates a column's distinct count from a row prefix sample.
func quickNDV(t *storage.Table, col string, probe int) int {
	c := t.ColByName(col)
	n := t.NumRows()
	step := 1
	if n > probe {
		step = n / probe
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i += step {
		seen[c.Value(i).Hash64()] = true
	}
	return len(seen)
}

// randomSubtree grows a connected table set of the target size.
func (g *generator) randomSubtree(size int) ([]string, []joinEdge, bool) {
	tables := g.ds.DB.TableNames()
	start := tables[g.rng.Intn(len(tables))]
	inSet := map[string]bool{start: true}
	order := []string{start}
	var conds []joinEdge
	for len(order) < size {
		// Candidate edges extending the set by exactly one table.
		var candidates []joinEdge
		for _, t := range order {
			for _, e := range g.adj[t] {
				other := e.b
				if e.b == t {
					other = e.a
				}
				if !inSet[other] {
					candidates = append(candidates, e)
				}
			}
		}
		if len(candidates) == 0 {
			return nil, nil, false
		}
		e := candidates[g.rng.Intn(len(candidates))]
		other := e.b
		if inSet[e.b] {
			other = e.a
		}
		inSet[other] = true
		order = append(order, other)
		conds = append(conds, e)
	}
	return order, conds, true
}

// randomPred draws one predicate on a table with a literal sampled from
// live rows (so probes land in populated regions). Time-like columns are
// favoured, mirroring analytical workloads' date-range filters (and giving
// the clustered multi-stage reader blocks to skip).
func (g *generator) randomPred(table string) (string, bool) {
	cols := g.predCols[table]
	if len(cols) == 0 {
		return "", false
	}
	prof := cols[g.rng.Intn(len(cols))]
	if g.rng.Float64() < 0.4 {
		for _, c := range cols {
			if strings.Contains(c.name, "year") || strings.Contains(c.name, "date") {
				prof = c
				break
			}
		}
	}
	t := g.ds.DB.Table(table)
	val := t.ColByName(prof.name).Value(g.rng.Intn(t.NumRows()))
	var op string
	switch {
	case prof.kind == types.KindString:
		op = "="
	case prof.ndv <= 20:
		op = []string{"=", "=", "<=", ">="}[g.rng.Intn(4)]
	default:
		op = []string{"<", "<=", ">", ">=", "="}[g.rng.Intn(5)]
	}
	return fmt.Sprintf("%s.%s %s %s", table, prof.name, op, val), true
}

func template(tables []string, conds []joinEdge) string {
	ts := append([]string(nil), tables...)
	sort.Strings(ts)
	cs := make([]string, len(conds))
	for i, e := range conds {
		l, r := e.a+"."+e.ca, e.b+"."+e.cb
		if r < l {
			l, r = r, l
		}
		cs[i] = l + "=" + r
	}
	sort.Strings(cs)
	return strings.Join(ts, ",") + "|" + strings.Join(cs, "&")
}

// Generate builds a workload from the dataset's join graph.
func Generate(ds *datagen.Dataset, cfg GenConfig) (Workload, error) {
	g, err := newGenerator(ds, cfg.Seed)
	if err != nil {
		return Workload{}, err
	}
	if cfg.MaxPreds <= 0 {
		cfg.MaxPreds = 4
	}
	if cfg.MinTables < 1 {
		cfg.MinTables = 1
	}
	w := Workload{Name: cfg.Name, Dataset: ds.Name}
	for len(w.Queries) < cfg.NumQueries {
		size := cfg.MinTables + g.rng.Intn(cfg.MaxTables-cfg.MinTables+1)
		tables, conds, ok := g.randomSubtree(size)
		if !ok {
			continue
		}
		var where []string
		for _, e := range conds {
			where = append(where, fmt.Sprintf("%s.%s = %s.%s", e.a, e.ca, e.b, e.cb))
		}
		nPreds := 1 + g.rng.Intn(cfg.MaxPreds)
		added := 0
		// Focus-table bias: multi-predicate filters concentrate on one
		// table (the analytics pattern the multi-stage reader and the
		// BN's cross-column modelling exist for).
		focus := tables[g.rng.Intn(len(tables))]
		for i := 0; i < nPreds*2 && added < nPreds; i++ {
			table := focus
			if added >= 2 {
				table = tables[g.rng.Intn(len(tables))]
			}
			if p, ok := g.randomPred(table); ok {
				where = append(where, p)
				added++
			}
		}
		q := Query{
			NumTables: len(tables),
			NumPreds:  added,
			Template:  template(tables, conds),
		}
		if g.rng.Float64() < cfg.AggFraction {
			keys := g.pickGroupKeys(tables, cfg.MinGroupKeys, cfg.MaxGroupKeys)
			if len(keys) == 0 {
				continue
			}
			sel := append([]string(nil), keys...)
			sel = append(sel, "COUNT(*)")
			if agg, ok := g.randomAgg(tables); ok {
				sel = append(sel, agg)
			}
			q.Kind = KindAgg
			q.NumGroupKeys = len(keys)
			q.SQL = fmt.Sprintf("SELECT %s FROM %s WHERE %s GROUP BY %s",
				strings.Join(sel, ", "), strings.Join(tables, ", "),
				strings.Join(where, " AND "), strings.Join(keys, ", "))
		} else {
			q.Kind = KindCount
			q.SQL = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s",
				strings.Join(tables, ", "), strings.Join(where, " AND "))
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

func (g *generator) pickGroupKeys(tables []string, minKeys, maxKeys int) []string {
	if minKeys < 1 {
		minKeys = 1
	}
	if maxKeys < minKeys {
		maxKeys = minKeys
	}
	want := minKeys + g.rng.Intn(maxKeys-minKeys+1)
	var pool []string
	for _, t := range tables {
		for _, c := range g.groupCols[t] {
			pool = append(pool, t+"."+c.name)
		}
	}
	g.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if want > len(pool) {
		want = len(pool)
	}
	keys := append([]string(nil), pool[:want]...)
	sort.Strings(keys)
	return keys
}

func (g *generator) randomAgg(tables []string) (string, bool) {
	var pool []string
	for _, t := range tables {
		for _, c := range g.aggCols[t] {
			pool = append(pool, t+"."+c.name)
		}
	}
	if len(pool) == 0 {
		return "", false
	}
	col := pool[g.rng.Intn(len(pool))]
	fn := []string{"AVG", "SUM", "MIN", "MAX"}[g.rng.Intn(4)]
	return fn + "(" + col + ")", true
}

// JOBHybrid generates the JOB-Hybrid workload (Table 5: 100 queries, 2–5
// joined tables, 1–2 group-by keys).
func JOBHybrid(ds *datagen.Dataset, seed int64) (Workload, error) {
	return Generate(ds, GenConfig{
		Name: "JOB-Hybrid", NumQueries: 100,
		MinTables: 2, MaxTables: 5,
		AggFraction: 0.3, MinGroupKeys: 1, MaxGroupKeys: 2,
		Seed: seed,
	})
}

// STATSHybrid generates the STATS-Hybrid workload (Table 5: 200 queries,
// 2–8 joined tables, 1–2 group-by keys).
func STATSHybrid(ds *datagen.Dataset, seed int64) (Workload, error) {
	return Generate(ds, GenConfig{
		Name: "STATS-Hybrid", NumQueries: 200,
		MinTables: 2, MaxTables: 8,
		AggFraction: 0.3, MinGroupKeys: 1, MaxGroupKeys: 2,
		Seed: seed,
	})
}

// AEOLUSOnline generates the AEOLUS-Online workload (Table 5: 200 queries,
// 2–5 joined tables, 2–4 group-by keys, aggregation heavy).
func AEOLUSOnline(ds *datagen.Dataset, seed int64) (Workload, error) {
	return Generate(ds, GenConfig{
		Name: "AEOLUS-Online", NumQueries: 200,
		MinTables: 2, MaxTables: 5,
		AggFraction: 0.5, MinGroupKeys: 2, MaxGroupKeys: 4,
		Seed: seed,
	})
}

// TimeSeriesProbes generates the IoT-monitoring workload over the
// timeseries dataset: narrow time-range scans over the append-ordered
// readings fact (where zone maps skip nearly every block), tag-equality
// probes against the high-NDV host/sensor columns, and COUNT-DISTINCT
// probes over those tags — the tag-cardinality estimates dashboards ask
// for ("how many hosts reported metric 3 in this window?").
func TimeSeriesProbes(ds *datagen.Dataset, n int, seed int64) (Workload, error) {
	g, err := newGenerator(ds, seed^0x75)
	if err != nil {
		return Workload{}, err
	}
	readings := ds.DB.Table("readings")
	if readings == nil {
		return Workload{}, fmt.Errorf("workload: dataset %s has no readings table", ds.Name)
	}
	tsCol := readings.ColByName("ts")
	nRows := readings.NumRows()
	// Narrow time windows land in populated regions: both endpoints come
	// from live rows close together in ingestion order.
	window := func() (int64, int64) {
		at := g.rng.Intn(nRows)
		span := 1 + g.rng.Intn(nRows/50+1)
		end := at + span
		if end >= nRows {
			end = nRows - 1
		}
		return tsCol.Value(at).I, tsCol.Value(end).I
	}
	w := Workload{Name: "TimeSeries-Probes", Dataset: ds.Name}
	for len(w.Queries) < n {
		lo, hi := window()
		where := []string{
			fmt.Sprintf("readings.ts >= %d", lo),
			fmt.Sprintf("readings.ts <= %d", hi),
		}
		nPreds := 2
		if g.rng.Intn(2) == 0 {
			where = append(where, fmt.Sprintf("readings.metric = %d", g.rng.Intn(6)+1))
			nPreds++
		}
		q := Query{NumTables: 1, Template: "readings"}
		switch g.rng.Intn(4) {
		case 0: // tag-cardinality NDV probe in a window
			tag := []string{"host", "sensor", "device_id"}[g.rng.Intn(3)]
			q.Kind = KindNDV
			q.NumGroupKeys = 1
			q.SQL = fmt.Sprintf("SELECT COUNT(DISTINCT readings.%s) FROM readings WHERE %s",
				tag, strings.Join(where, " AND "))
		case 1: // tag-equality probe: point lookup on a high-NDV tag
			host := readings.ColByName("host").Value(g.rng.Intn(nRows)).S
			where = append(where, fmt.Sprintf("readings.host = '%s'", host))
			nPreds++
			q.Kind = KindCount
			q.SQL = fmt.Sprintf("SELECT COUNT(*) FROM readings WHERE %s", strings.Join(where, " AND "))
		default: // windowed COUNT — the pure zone-map-skipping shape
			q.Kind = KindCount
			q.SQL = fmt.Sprintf("SELECT COUNT(*) FROM readings WHERE %s", strings.Join(where, " AND "))
		}
		q.NumPreds = nPreds
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// ByName dispatches the hybrid workload matching a dataset name.
func ByName(ds *datagen.Dataset, seed int64) (Workload, error) {
	switch ds.Name {
	case "imdb":
		return JOBHybrid(ds, seed)
	case "stats":
		return STATSHybrid(ds, seed)
	case "aeolus":
		return AEOLUSOnline(ds, seed)
	case "timeseries":
		return TimeSeriesProbes(ds, 100, seed)
	default:
		return Generate(ds, GenConfig{
			Name: ds.Name, NumQueries: 50, MinTables: 1, MaxTables: 2,
			AggFraction: 0.3, MinGroupKeys: 1, MaxGroupKeys: 2, Seed: seed,
		})
	}
}

// CountProbes generates the COUNT estimation probes behind the Table 1/2
// Q-error reports: a mix of single-table conjunctions and joins.
func CountProbes(ds *datagen.Dataset, n int, seed int64) (Workload, error) {
	g, err := newGenerator(ds, seed^0xC0)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{Name: ds.Name + "-count-probes", Dataset: ds.Name}
	for len(w.Queries) < n {
		var tables []string
		var conds []joinEdge
		if g.rng.Float64() < 0.5 && len(g.edges) > 0 {
			var ok bool
			tables, conds, ok = g.randomSubtree(2 + g.rng.Intn(2))
			if !ok {
				continue
			}
		} else {
			names := g.ds.DB.TableNames()
			tables = []string{names[g.rng.Intn(len(names))]}
		}
		var where []string
		for _, e := range conds {
			where = append(where, fmt.Sprintf("%s.%s = %s.%s", e.a, e.ca, e.b, e.cb))
		}
		nPreds := 1 + g.rng.Intn(3)
		added := 0
		focus := tables[g.rng.Intn(len(tables))]
		for i := 0; i < nPreds*2 && added < nPreds; i++ {
			table := focus
			if added >= 2 {
				table = tables[g.rng.Intn(len(tables))]
			}
			if p, ok := g.randomPred(table); ok {
				where = append(where, p)
				added++
			}
		}
		if added == 0 {
			continue
		}
		w.Queries = append(w.Queries, Query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s",
				strings.Join(tables, ", "), strings.Join(where, " AND ")),
			Kind:      KindCount,
			NumTables: len(tables),
			NumPreds:  added,
			Template:  template(tables, conds),
		})
	}
	return w, nil
}

// NDVProbes generates single-table COUNT DISTINCT probes (the NDV rows of
// Tables 1/2): distinct counts over 1–2 columns under a filter.
func NDVProbes(ds *datagen.Dataset, n int, seed int64) (Workload, error) {
	g, err := newGenerator(ds, seed^0xD7)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{Name: ds.Name + "-ndv-probes", Dataset: ds.Name}
	names := ds.DB.TableNames()
	for len(w.Queries) < n {
		table := names[g.rng.Intn(len(names))]
		cols := g.groupCols[table]
		if len(cols) == 0 {
			continue
		}
		k := 1
		if len(cols) > 1 && g.rng.Intn(2) == 0 {
			k = 2
		}
		g.rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		var distinct []string
		for _, c := range cols[:k] {
			distinct = append(distinct, table+"."+c.name)
		}
		sql := fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM %s", strings.Join(distinct, ", "), table)
		if p, ok := g.randomPred(table); ok && g.rng.Intn(3) > 0 {
			sql += " WHERE " + p
		}
		w.Queries = append(w.Queries, Query{
			SQL: sql, Kind: KindNDV, NumTables: 1, NumGroupKeys: k, Template: table,
		})
	}
	return w, nil
}

// Stats are the Table 5 statistics of a workload.
type Stats struct {
	Queries         int
	JoinTemplates   int
	MinTables       int
	MaxTables       int
	MinGroupKeys    int
	MaxGroupKeys    int
	HitMaxTables    int
	HitMaxGroupKeys int
	// MinCard/MaxCard bound the true cardinalities (filled only when
	// computed with truth).
	MinCard, MaxCard float64
}

// ComputeStats derives the workload's Table 5 row. When exec is non-nil,
// each query's true cardinality (COUNT(*) form) is computed by execution.
func ComputeStats(w Workload, exec *engine.Engine) (Stats, error) {
	s := Stats{Queries: len(w.Queries), MinTables: 1 << 30, MinGroupKeys: 1 << 30}
	templates := map[string]bool{}
	for _, q := range w.Queries {
		if q.NumTables > 1 {
			templates[q.Template] = true
		}
		if q.NumTables < s.MinTables {
			s.MinTables = q.NumTables
		}
		if q.NumTables > s.MaxTables {
			s.MaxTables = q.NumTables
		}
		if q.Kind == KindAgg || q.Kind == KindNDV {
			if q.NumGroupKeys < s.MinGroupKeys {
				s.MinGroupKeys = q.NumGroupKeys
			}
			if q.NumGroupKeys > s.MaxGroupKeys {
				s.MaxGroupKeys = q.NumGroupKeys
			}
		}
	}
	for _, q := range w.Queries {
		if q.NumTables == s.MaxTables {
			s.HitMaxTables++
		}
		if (q.Kind == KindAgg || q.Kind == KindNDV) && q.NumGroupKeys == s.MaxGroupKeys {
			s.HitMaxGroupKeys++
		}
	}
	s.JoinTemplates = len(templates)
	if s.MinGroupKeys == 1<<30 {
		s.MinGroupKeys = 0
	}
	if exec != nil {
		s.MinCard = 1e308
		for _, q := range w.Queries {
			truth, err := exec.TrueCardinality(CountForm(q.SQL))
			if err != nil {
				return s, fmt.Errorf("workload: truth for %q: %w", q.SQL, err)
			}
			if truth < s.MinCard {
				s.MinCard = truth
			}
			if truth > s.MaxCard {
				s.MaxCard = truth
			}
		}
	}
	return s, nil
}

// CountForm rewrites a query into its COUNT(*) cardinality form: the same
// FROM/WHERE with the select list and grouping dropped.
func CountForm(sql string) string {
	upper := strings.ToUpper(sql)
	from := strings.Index(upper, " FROM ")
	if from < 0 {
		return sql
	}
	rest := sql[from:]
	if g := strings.Index(strings.ToUpper(rest), " GROUP BY "); g >= 0 {
		rest = rest[:g]
	}
	return "SELECT COUNT(*)" + rest
}
