// Package datagen builds the synthetic datasets the evaluation runs on.
// The paper evaluates on IMDB (JOB-light), STATS (STATS-CEB), and AEOLUS,
// an internal ByteDance business dataset; none of the raw data ships with
// this repository, so each generator reproduces the published *shape* of
// its dataset — table counts, primary-key/foreign-key fan-outs, Zipfian
// skew, cross-column correlation, and high-NDV columns — at a configurable
// scale factor. Q-error behaviour of the estimators depends on those shape
// properties, not on the literal bytes.
package datagen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"bytecard/internal/catalog"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// Dataset couples the materialized tables with their catalog metadata.
type Dataset struct {
	Name   string
	DB     *storage.Database
	Schema *catalog.Schema
}

// Config controls dataset generation.
type Config struct {
	// Scale multiplies every base row count; 1.0 is the default bench
	// scale. Values below ~0.01 still generate at least a handful of rows
	// per table.
	Scale float64
	// Seed drives the deterministic generator.
	Seed int64
	// Drift, when true, shifts the generated distribution partway through
	// each table's row stream — foreign-key Zipf skew and cross-column
	// correlations change for rows past DriftPoint — reproducing the
	// workload drift that makes models trained on the clean stream stale.
	// Toy and IMDB model the shift; the other generators currently ignore
	// the knob. Drift off is byte-identical to a Config without the field.
	Drift bool
	// DriftPoint is the fraction (0..1) of each row stream generated
	// before the shift; zero or out-of-range defaults to 0.5.
	DriftPoint float64
}

// driftAt reports whether zero-based row i of an n-row stream falls after
// the drift point (always false when drift is disabled).
func (c Config) driftAt(i, n int) bool {
	if !c.Drift {
		return false
	}
	p := c.DriftPoint
	if p <= 0 || p >= 1 {
		p = 0.5
	}
	return float64(i) >= p*float64(n)
}

func (c Config) scale(base int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	n := int(math.Round(float64(base) * s))
	if n < 8 {
		n = 8
	}
	return n
}

// gen wraps a seeded RNG with the distribution helpers the generators use.
type gen struct {
	rng *rand.Rand
	// zipfs memoizes one sampler per (s, maxVal): rand.NewZipf only
	// precomputes constants from its parameters and draws nothing, so a
	// reused sampler yields exactly the draws a fresh one per call would.
	zipfs map[zipfParams]*rand.Zipf
}

type zipfParams struct {
	s      float64
	maxVal int64
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), zipfs: map[zipfParams]*rand.Zipf{}}
}

// zipf returns a value in [1, maxVal] with Zipf skew s (>1 skews harder).
// Degenerate parameters degrade instead of panicking: a domain of one value
// always returns 1, and s <= 1 (where rand.NewZipf returns nil) falls back
// to a uniform draw over the domain.
func (g *gen) zipf(s float64, maxVal int64) int64 {
	if maxVal <= 1 {
		return 1
	}
	if s <= 1 {
		return g.uniform(1, maxVal)
	}
	p := zipfParams{s, maxVal}
	z, ok := g.zipfs[p]
	if !ok {
		z = rand.NewZipf(g.rng, s, 1, uint64(maxVal-1))
		g.zipfs[p] = z
	}
	return int64(z.Uint64()) + 1
}

// zipfSampler returns a reusable sampler (much faster than re-creating the
// Zipf state per draw), with the same degenerate-parameter guards as zipf.
func (g *gen) zipfSampler(s float64, maxVal int64) func() int64 {
	if maxVal <= 1 {
		return func() int64 { return 1 }
	}
	if s <= 1 {
		return func() int64 { return g.uniform(1, maxVal) }
	}
	z := rand.NewZipf(g.rng, s, 1, uint64(maxVal-1))
	return func() int64 { return int64(z.Uint64()) + 1 }
}

// uniform returns a value in [lo, hi].
func (g *gen) uniform(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Int63n(hi-lo+1)
}

// normalClamped samples a rounded normal with the given mean/stddev clamped
// to [lo, hi].
func (g *gen) normalClamped(mean, std float64, lo, hi int64) int64 {
	v := int64(math.Round(g.rng.NormFloat64()*std + mean))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// pick returns one of the options with the given cumulative weights.
func (g *gen) pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := g.rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// sortRowsBy orders rows by a time-like column and applies local
// shuffling, so marginal distributions and within-row correlations are
// preserved while the column correlates with row order — the natural
// clustering of append-only warehouses (rows arrive roughly
// chronologically). This clustering is what makes block skipping by the
// multi-stage reader effective.
func (g *gen) sortRowsBy(rows [][]types.Datum, colIdx int) {
	slices.SortStableFunc(rows, func(a, b []types.Datum) int { return cmp.Compare(a[colIdx].I, b[colIdx].I) })
	window := len(rows) / 50
	if window < 2 {
		return
	}
	for i := range rows {
		j := i + g.rng.Intn(window)
		if j < len(rows) {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
}

// tableSpec couples a builder with its catalog registration.
type tableSpec struct {
	b     *storage.Builder
	specs []storage.ColumnSpec
}

func newTable(name string, specs []storage.ColumnSpec) *tableSpec {
	return &tableSpec{b: storage.NewBuilder(name, specs), specs: specs}
}

func (t *tableSpec) finish(ds *Dataset) *storage.Table {
	tab := t.b.Build()
	ds.DB.Add(tab)
	meta := &catalog.TableMeta{Name: tab.Name(), RowCount: int64(tab.NumRows())}
	for _, s := range t.specs {
		meta.Columns = append(meta.Columns, catalog.ColumnMeta{Name: s.Name, Kind: s.Kind})
	}
	ds.Schema.AddTable(meta)
	return tab
}

func newDataset(name string) *Dataset {
	return &Dataset{Name: name, DB: storage.NewDatabase(), Schema: catalog.NewSchema()}
}

func join(ds *Dataset, lt, lc, rt, rc string) {
	ds.Schema.AddJoinPattern(catalog.JoinPattern{
		Left:  catalog.ColumnRef{Table: lt, Column: lc},
		Right: catalog.ColumnRef{Table: rt, Column: rc},
	})
}

// IMDB generates the IMDB-like dataset backing the JOB-light workload: a
// title dimension with five fact tables hanging off title.id, Zipfian
// movie popularity (a few titles account for most cast/keyword entries),
// and production_year correlated with kind_id.
func IMDB(cfg Config) *Dataset {
	g := newGen(cfg.Seed ^ 0x1347)
	ds := newDataset("imdb")

	nTitle := cfg.scale(40000)
	title := newTable("title", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "kind_id", Kind: types.KindInt64},
		{Name: "production_year", Kind: types.KindInt64},
		{Name: "season_nr", Kind: types.KindInt64},
	})
	titleRows := make([][]types.Datum, 0, nTitle)
	for i := 1; i <= nTitle; i++ {
		kind := int64(g.pick([]float64{0.35, 0.3, 0.12, 0.1, 0.06, 0.04, 0.03})) + 1
		// TV series (kind 2) skew later; movies (kind 1) spread wide —
		// the cross-column correlation traditional estimators miss.
		var year int64
		if kind == 2 {
			year = g.normalClamped(2010, 6, 1950, 2019)
		} else {
			year = g.normalClamped(1995, 18, 1880, 2019)
		}
		season := int64(0)
		if kind == 2 {
			season = g.uniform(1, 25)
		}
		titleRows = append(titleRows, []types.Datum{
			types.Int(int64(i)), types.Int(kind), types.Int(year), types.Int(season),
		})
	}
	// Titles are ingested roughly in production order: ids reassigned after
	// time-clustering so auto-increment ids track years, as in real feeds.
	g.sortRowsBy(titleRows, 2)
	for i, row := range titleRows {
		row[0] = types.Int(int64(i + 1))
		title.b.Append(row)
	}
	title.finish(ds)

	factSizes := map[string]int{
		"cast_info":       140000,
		"movie_keyword":   90000,
		"movie_info":      60000,
		"movie_companies": 50000,
		"movie_info_idx":  30000,
	}

	movieFK := g.zipfSampler(1.3, int64(nTitle))
	// Post-drift fact rows reference a much hotter popularity head —
	// the skew shift that invalidates join-bucket statistics trained on
	// the clean prefix. (Building the sampler consumes no RNG state, so
	// the drift-off stream is unchanged.)
	movieFKDrift := g.zipfSampler(2.0, int64(nTitle))
	movieRef := func(i, n int) int64 {
		if cfg.driftAt(i, n) {
			return movieFKDrift()
		}
		return movieFK()
	}

	ci := newTable("cast_info", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "movie_id", Kind: types.KindInt64},
		{Name: "person_id", Kind: types.KindInt64},
		{Name: "role_id", Kind: types.KindInt64},
	})
	nCast := cfg.scale(factSizes["cast_info"])
	personMax := int64(cfg.scale(80000))
	personFK := g.zipfSampler(1.2, personMax)
	for i := 1; i <= nCast; i++ {
		person := personFK()
		// Prolific people (low ids under Zipf) cluster in acting roles —
		// until the drift point, after which the role mix decorrelates.
		var role int64
		if person < personMax/10 && !cfg.driftAt(i-1, nCast) {
			role = int64(g.pick([]float64{0.45, 0.35, 0.05, 0.05, 0.04, 0.02, 0.01, 0.01, 0.01, 0.005, 0.005})) + 1
		} else {
			role = g.uniform(1, 11)
		}
		ci.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(movieRef(i-1, nCast)), types.Int(person), types.Int(role),
		})
	}
	ci.finish(ds)

	mk := newTable("movie_keyword", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "movie_id", Kind: types.KindInt64},
		{Name: "keyword_id", Kind: types.KindInt64},
	})
	nKw := cfg.scale(factSizes["movie_keyword"])
	kwFK := g.zipfSampler(1.4, int64(cfg.scale(30000)))
	for i := 1; i <= nKw; i++ {
		mk.b.Append([]types.Datum{types.Int(int64(i)), types.Int(movieRef(i-1, nKw)), types.Int(kwFK())})
	}
	mk.finish(ds)

	mi := newTable("movie_info", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "movie_id", Kind: types.KindInt64},
		{Name: "info_type_id", Kind: types.KindInt64},
	})
	nMi := cfg.scale(factSizes["movie_info"])
	for i := 1; i <= nMi; i++ {
		mi.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(movieRef(i-1, nMi)), types.Int(g.zipf(1.5, 110)),
		})
	}
	mi.finish(ds)

	mc := newTable("movie_companies", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "movie_id", Kind: types.KindInt64},
		{Name: "company_id", Kind: types.KindInt64},
		{Name: "company_type_id", Kind: types.KindInt64},
	})
	nMc := cfg.scale(factSizes["movie_companies"])
	companyFK := g.zipfSampler(1.5, int64(cfg.scale(20000)))
	for i := 1; i <= nMc; i++ {
		mc.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(movieRef(i-1, nMc)), types.Int(companyFK()),
			types.Int(g.uniform(1, 2)),
		})
	}
	mc.finish(ds)

	mii := newTable("movie_info_idx", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "movie_id", Kind: types.KindInt64},
		{Name: "info_type_id", Kind: types.KindInt64},
	})
	nMii := cfg.scale(factSizes["movie_info_idx"])
	for i := 1; i <= nMii; i++ {
		mii.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(movieRef(i-1, nMii)), types.Int(g.uniform(99, 113)),
		})
	}
	mii.finish(ds)

	for _, fact := range []string{"cast_info", "movie_keyword", "movie_info", "movie_companies", "movie_info_idx"} {
		join(ds, fact, "movie_id", "title", "id")
	}
	return ds
}

// STATS generates the STATS-like dataset (Stack Exchange shape) backing the
// STATS-CEB workload: eight tables, two hub keys (users.id and posts.id),
// strong score/view correlations, and heavier tails than IMDB — the
// distribution complexity the paper credits for STATS's larger wins.
func STATS(cfg Config) *Dataset {
	g := newGen(cfg.Seed ^ 0x57A75)
	ds := newDataset("stats")

	nUsers := cfg.scale(8000)
	users := newTable("users", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "reputation", Kind: types.KindInt64},
		{Name: "creation_year", Kind: types.KindInt64},
		{Name: "up_votes", Kind: types.KindInt64},
		{Name: "down_votes", Kind: types.KindInt64},
	})
	for i := 1; i <= nUsers; i++ {
		rep := g.zipf(1.2, 100000)
		up := int64(float64(rep)*0.6) + g.uniform(0, 20) // strongly correlated
		down := g.zipf(1.8, rep/10+2)
		users.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(rep), types.Int(g.uniform(2008, 2014)),
			types.Int(up), types.Int(down),
		})
	}
	users.finish(ds)

	nPosts := cfg.scale(45000)
	posts := newTable("posts", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "owner_user_id", Kind: types.KindInt64},
		{Name: "post_type", Kind: types.KindInt64},
		{Name: "score", Kind: types.KindInt64},
		{Name: "view_count", Kind: types.KindInt64},
		{Name: "answer_count", Kind: types.KindInt64},
		{Name: "creation_year", Kind: types.KindInt64},
	})
	ownerFK := g.zipfSampler(1.25, int64(nUsers))
	postRows := make([][]types.Datum, 0, nPosts)
	for i := 1; i <= nPosts; i++ {
		score := g.zipf(1.6, 500) - 3 // mostly small, occasionally negative
		views := score*g.uniform(20, 60) + g.zipf(1.3, 2000)
		if views < 0 {
			views = 0
		}
		postType := int64(g.pick([]float64{0.45, 0.5, 0.05})) + 1
		answers := int64(0)
		if postType == 1 {
			answers = g.zipf(1.8, 30) - 1
		}
		postRows = append(postRows, []types.Datum{
			types.Int(int64(i)), types.Int(ownerFK()), types.Int(postType),
			types.Int(score), types.Int(views), types.Int(answers),
			types.Int(g.uniform(2009, 2014)),
		})
	}
	g.sortRowsBy(postRows, 6) // chronological ingestion
	for i, row := range postRows {
		row[0] = types.Int(int64(i + 1))
		posts.b.Append(row)
	}
	posts.finish(ds)

	postFK := g.zipfSampler(1.35, int64(nPosts))
	userFK := g.zipfSampler(1.25, int64(nUsers))

	comments := newTable("comments", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "post_id", Kind: types.KindInt64},
		{Name: "user_id", Kind: types.KindInt64},
		{Name: "score", Kind: types.KindInt64},
		{Name: "creation_year", Kind: types.KindInt64},
	})
	nComments := cfg.scale(70000)
	commentRows := make([][]types.Datum, 0, nComments)
	for i := 1; i <= nComments; i++ {
		commentRows = append(commentRows, []types.Datum{
			types.Int(int64(i)), types.Int(postFK()), types.Int(userFK()),
			types.Int(g.zipf(2.0, 60) - 1), types.Int(g.uniform(2009, 2014)),
		})
	}
	g.sortRowsBy(commentRows, 4)
	for _, row := range commentRows {
		comments.b.Append(row)
	}
	comments.finish(ds)

	badges := newTable("badges", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "user_id", Kind: types.KindInt64},
		{Name: "badge_class", Kind: types.KindInt64},
		{Name: "grant_year", Kind: types.KindInt64},
	})
	nBadges := cfg.scale(30000)
	for i := 1; i <= nBadges; i++ {
		badges.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(userFK()), types.Int(g.zipf(1.9, 3)),
			types.Int(g.uniform(2009, 2014)),
		})
	}
	badges.finish(ds)

	votes := newTable("votes", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "post_id", Kind: types.KindInt64},
		{Name: "user_id", Kind: types.KindInt64},
		{Name: "vote_type", Kind: types.KindInt64},
		{Name: "creation_year", Kind: types.KindInt64},
	})
	nVotes := cfg.scale(90000)
	voteRows := make([][]types.Datum, 0, nVotes)
	for i := 1; i <= nVotes; i++ {
		voteRows = append(voteRows, []types.Datum{
			types.Int(int64(i)), types.Int(postFK()), types.Int(userFK()),
			types.Int(g.zipf(1.7, 15)), types.Int(g.uniform(2009, 2014)),
		})
	}
	g.sortRowsBy(voteRows, 4)
	for _, row := range voteRows {
		votes.b.Append(row)
	}
	votes.finish(ds)

	ph := newTable("postHistory", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "post_id", Kind: types.KindInt64},
		{Name: "user_id", Kind: types.KindInt64},
		{Name: "history_type", Kind: types.KindInt64},
	})
	nPH := cfg.scale(60000)
	for i := 1; i <= nPH; i++ {
		ph.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(postFK()), types.Int(userFK()),
			types.Int(g.zipf(1.5, 38)),
		})
	}
	ph.finish(ds)

	pl := newTable("postLinks", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "post_id", Kind: types.KindInt64},
		{Name: "related_post_id", Kind: types.KindInt64},
		{Name: "link_type", Kind: types.KindInt64},
	})
	nPL := cfg.scale(6000)
	for i := 1; i <= nPL; i++ {
		pl.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(postFK()), types.Int(postFK()),
			types.Int(g.zipf(2.5, 3)),
		})
	}
	pl.finish(ds)

	tags := newTable("tags", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "excerpt_post_id", Kind: types.KindInt64},
		{Name: "tag_count", Kind: types.KindInt64},
	})
	nTags := cfg.scale(1000)
	for i := 1; i <= nTags; i++ {
		tags.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(postFK()), types.Int(g.zipf(1.3, 20000)),
		})
	}
	tags.finish(ds)

	join(ds, "posts", "owner_user_id", "users", "id")
	join(ds, "comments", "post_id", "posts", "id")
	join(ds, "comments", "user_id", "users", "id")
	join(ds, "badges", "user_id", "users", "id")
	join(ds, "votes", "post_id", "posts", "id")
	join(ds, "votes", "user_id", "users", "id")
	join(ds, "postHistory", "post_id", "posts", "id")
	join(ds, "postHistory", "user_id", "users", "id")
	join(ds, "postLinks", "post_id", "posts", "id")
	join(ds, "tags", "excerpt_post_id", "posts", "id")
	return ds
}

// AEOLUS generates the AEOLUS-like dataset: five business tables around an
// advertising-events fact table, matching the paper's description of its
// internal workload — heavy skew, categorical dimensions with strong
// correlations (the BN figure in the paper is an advertising-placement
// table), and exceptionally high-NDV columns (the regime where RBX needs
// calibration).
func AEOLUS(cfg Config) *Dataset {
	g := newGen(cfg.Seed ^ 0xAE0105)
	ds := newDataset("aeolus")

	nAdvertisers := cfg.scale(2000)
	adv := newTable("advertisers", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "industry", Kind: types.KindInt64},
		{Name: "region", Kind: types.KindInt64},
	})
	for i := 1; i <= nAdvertisers; i++ {
		industry := g.zipf(1.4, 40)
		// Region correlates with industry (industries cluster regionally).
		region := (industry*7+g.zipf(1.8, 5))%20 + 1
		adv.b.Append([]types.Datum{types.Int(int64(i)), types.Int(industry), types.Int(region)})
	}
	adv.finish(ds)

	nCampaigns := cfg.scale(10000)
	camp := newTable("campaigns", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "advertiser_id", Kind: types.KindInt64},
		{Name: "budget", Kind: types.KindInt64},
		{Name: "category", Kind: types.KindInt64},
	})
	advFK := g.zipfSampler(1.3, int64(nAdvertisers))
	for i := 1; i <= nCampaigns; i++ {
		camp.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(advFK()), types.Int(g.zipf(1.2, 1000000)),
			types.Int(g.zipf(1.5, 30)),
		})
	}
	camp.finish(ds)

	nAds := cfg.scale(40000)
	ads := newTable("ads", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "campaign_id", Kind: types.KindInt64},
		{Name: "target_platform", Kind: types.KindInt64},
		{Name: "content_type", Kind: types.KindInt64},
		{Name: "bid", Kind: types.KindInt64},
		// audience_tags is a nested column: stored, but excluded from
		// model training by the preprocessor's column selection.
		{Name: "audience_tags", Kind: types.KindArray},
	})
	campFK := g.zipfSampler(1.3, int64(nCampaigns))
	for i := 1; i <= nAds; i++ {
		platform := int64(g.pick([]float64{0.45, 0.25, 0.15, 0.1, 0.05})) + 1
		// Content type strongly depends on platform — the BN edge the
		// paper's Figure 4 illustrates.
		var content int64
		switch platform {
		case 1:
			content = int64(g.pick([]float64{0.7, 0.2, 0.1})) + 1
		case 2:
			content = int64(g.pick([]float64{0.1, 0.8, 0.1})) + 1
		default:
			content = int64(g.pick([]float64{0.2, 0.2, 0.6})) + 1
		}
		ads.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(campFK()), types.Int(platform),
			types.Int(content), types.Int(g.zipf(1.4, 5000)),
			types.Arr(fmt.Sprintf(`["seg%d","seg%d"]`, g.zipf(1.5, 40), g.zipf(1.5, 40))),
		})
	}
	ads.finish(ds)

	nUsers := cfg.scale(30000)
	ud := newTable("users_dim", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "age_group", Kind: types.KindInt64},
		{Name: "region", Kind: types.KindInt64},
		{Name: "device", Kind: types.KindInt64},
	})
	for i := 1; i <= nUsers; i++ {
		age := int64(g.pick([]float64{0.15, 0.35, 0.25, 0.15, 0.1})) + 1
		device := (age+g.zipf(2.0, 3))%4 + 1 // device correlates with age
		ud.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(age), types.Int(g.zipf(1.5, 20)),
			types.Int(device),
		})
	}
	ud.finish(ds)

	nEvents := cfg.scale(300000)
	ev := newTable("ad_events", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "ad_id", Kind: types.KindInt64},
		{Name: "user_id", Kind: types.KindInt64},
		{Name: "event_type", Kind: types.KindInt64},
		{Name: "duration", Kind: types.KindInt64},
		{Name: "cost", Kind: types.KindInt64},
		{Name: "event_date", Kind: types.KindInt64},
		{Name: "session_id", Kind: types.KindInt64},
	})
	adFK := g.zipfSampler(1.35, int64(nAds))
	userFK := g.zipfSampler(1.1, int64(nUsers))
	eventRows := make([][]types.Datum, 0, nEvents)
	for i := 1; i <= nEvents; i++ {
		etype := int64(g.pick([]float64{0.7, 0.2, 0.07, 0.03})) + 1
		dur := g.zipf(1.5, 600)
		if etype == 1 { // impressions are short
			dur = g.zipf(2.2, 30)
		}
		// session_id is the exceptionally-high-NDV column: nearly unique.
		session := int64(i)*7 + g.uniform(0, 5)
		eventRows = append(eventRows, []types.Datum{
			types.Int(int64(i)), types.Int(adFK()), types.Int(userFK()),
			types.Int(etype), types.Int(dur), types.Int(dur * g.uniform(1, 9)),
			types.Int(g.uniform(20230101, 20230190)), types.Int(session),
		})
	}
	g.sortRowsBy(eventRows, 6) // event logs arrive in time order
	for i, row := range eventRows {
		row[0] = types.Int(int64(i + 1))
		ev.b.Append(row)
	}
	ev.finish(ds)

	join(ds, "ad_events", "ad_id", "ads", "id")
	join(ds, "ad_events", "user_id", "users_dim", "id")
	join(ds, "ads", "campaign_id", "campaigns", "id")
	join(ds, "campaigns", "advertiser_id", "advertisers", "id")
	return ds
}

// Toy generates a deterministic two-table dataset small enough for exact
// brute-force verification in tests: dim(id, cat) and fact(id, dim_id, val,
// flag) with a known correlation between val and flag.
func Toy(cfg Config) *Dataset {
	g := newGen(cfg.Seed ^ 0x70)
	ds := newDataset("toy")

	nDim := cfg.scale(50)
	dim := newTable("dim", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "cat", Kind: types.KindInt64},
	})
	for i := 1; i <= nDim; i++ {
		dim.b.Append([]types.Datum{types.Int(int64(i)), types.Int(g.uniform(1, 5))})
	}
	dim.finish(ds)

	nFact := cfg.scale(400)
	fact := newTable("fact", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "dim_id", Kind: types.KindInt64},
		{Name: "val", Kind: types.KindInt64},
		{Name: "flag", Kind: types.KindInt64},
	})
	fk := g.zipfSampler(1.4, int64(nDim))
	// The post-drift regime concentrates the foreign key on a hotter head
	// (sampler construction consumes no RNG state, keeping the drift-off
	// stream byte-identical).
	fkDrift := g.zipfSampler(2.4, int64(nDim))
	for i := 1; i <= nFact; i++ {
		val := g.uniform(0, 99)
		flag := int64(0)
		if val >= 50 { // flag fully determined by val: maximal correlation
			flag = 1
		}
		dimID := fk()
		if cfg.driftAt(i-1, nFact) {
			// After the drift point the val↔flag correlation inverts, the
			// value range narrows, and the key skew sharpens — stale models
			// trained on the clean prefix mispredict all three.
			flag = 1 - flag
			val = g.uniform(0, 49)
			dimID = fkDrift()
		}
		fact.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(dimID), types.Int(val), types.Int(flag),
		})
	}
	fact.finish(ds)

	join(ds, "fact", "dim_id", "dim", "id")
	return ds
}

// TimeSeries generates an IoT/metrics dataset in the shape ByteDance's
// observability warehouses ingest: a device dimension and one append-only
// readings fact with few measurement kinds, many high-NDV tag columns
// (host, sensor serial, trace id — the regime the RBX NDV estimator
// exists for), and a strictly append-ordered timestamp. Because the
// timestamp is monotone in row order, per-block zone maps partition its
// domain perfectly — a time-range predicate overlaps only the blocks that
// actually hold the window, so the pushdown scan contract skips nearly
// the whole table on narrow windows.
func TimeSeries(cfg Config) *Dataset {
	g := newGen(cfg.Seed ^ 0x715E)
	ds := newDataset("timeseries")

	nDevices := cfg.scale(3000)
	dev := newTable("devices", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "fleet", Kind: types.KindInt64},
		{Name: "model", Kind: types.KindString},
		{Name: "site", Kind: types.KindString},
	})
	for i := 1; i <= nDevices; i++ {
		// Fleets are few; models and sites are moderately wide tags.
		fleet := g.zipf(1.5, 12)
		dev.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(fleet),
			types.Str(fmt.Sprintf("model-%02d", g.zipf(1.3, 40))),
			types.Str(fmt.Sprintf("site-%03d", g.zipf(1.2, int64(nDevices/20+2)))),
		})
	}
	dev.finish(ds)

	nReadings := cfg.scale(240000)
	rd := newTable("readings", []storage.ColumnSpec{
		{Name: "id", Kind: types.KindInt64},
		{Name: "device_id", Kind: types.KindInt64},
		{Name: "ts", Kind: types.KindInt64},
		{Name: "metric", Kind: types.KindInt64},
		{Name: "value", Kind: types.KindFloat64},
		{Name: "host", Kind: types.KindString},
		{Name: "sensor", Kind: types.KindString},
		{Name: "trace_id", Kind: types.KindInt64},
	})
	deviceFK := g.zipfSampler(1.25, int64(nDevices))
	// Append-ordered ingestion: ts advances monotonically (a few readings
	// share a tick), never looking back — the property that makes the
	// timestamp's zone maps disjoint across blocks.
	ts := int64(1_700_000_000)
	nHosts := int64(nReadings/40 + 2) // high-NDV: one host per ~40 rows
	for i := 1; i <= nReadings; i++ {
		ts += g.uniform(0, 3)
		// Few measurement kinds, skewed toward the hot ones.
		metric := g.zipf(1.6, 6)
		val := float64(g.zipf(1.4, 10000)) / 10
		if metric == 1 { // cpu-style gauge: bounded
			val = float64(g.uniform(0, 1000)) / 10
		}
		host := g.zipf(1.1, nHosts)
		rd.b.Append([]types.Datum{
			types.Int(int64(i)), types.Int(deviceFK()), types.Int(ts),
			types.Int(metric), types.Float(val),
			types.Str(fmt.Sprintf("host-%06d", host)),
			// sensor serials are near-unique per (host, metric): the
			// exceptionally-high-NDV tag column.
			types.Str(fmt.Sprintf("sn-%06d-%d", host*7+metric, g.uniform(0, 9))),
			types.Int(int64(i)*13 + g.uniform(0, 11)), // trace_id: nearly unique
		})
	}
	rd.finish(ds)

	join(ds, "readings", "device_id", "devices", "id")
	return ds
}

// ByName dispatches to a generator by dataset name.
func ByName(name string, cfg Config) (*Dataset, error) {
	switch name {
	case "imdb":
		return IMDB(cfg), nil
	case "stats":
		return STATS(cfg), nil
	case "aeolus":
		return AEOLUS(cfg), nil
	case "timeseries":
		return TimeSeries(cfg), nil
	case "toy":
		return Toy(cfg), nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
}

// Names lists the available datasets.
func Names() []string { return []string{"imdb", "stats", "aeolus", "timeseries", "toy"} }
