package core_test

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"testing"

	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/engine"
	"bytecard/internal/expr"
	"bytecard/internal/factorjoin"
	"bytecard/internal/types"
)

// shardedStatsPipeline is statsPipeline with posts and comments trained
// as shard-specialized models, so their bucket vectors sum over shards.
func shardedStatsPipeline(t *testing.T) (*core.InferenceEngine, *core.Estimator, *engine.Engine) {
	t.Helper()
	ds, err := datagen.ByName("stats", datagen.Config{Scale: 0.02, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	ds.Schema.Table("posts").ShardKey = "creation_year"
	ds.Schema.Table("comments").ShardKey = "id"
	infer, est, exec, _ := pipelineFor(t, "stats", ds)
	for _, name := range []string{"posts", "comments"} {
		if ctxs, _ := infer.Models().BN(name); len(ctxs) < 2 {
			t.Fatalf("%s has %d BN shards, want several", name, len(ctxs))
		}
	}
	return infer, est, exec
}

// keyVectorJoin joins an unfiltered table (users), a sharded table under a
// three-way OR (posts: seven inclusion–exclusion terms, two join columns),
// a sharded conjunctively filtered table (comments) and a table filtered
// selectively enough that some of its buckets fall under the half-row
// floor (votes).
const keyVectorJoin = "SELECT COUNT(*) FROM users u, posts p, comments c, votes v " +
	"WHERE p.owner_user_id = u.id AND c.post_id = p.id AND v.user_id = u.id " +
	"AND (p.score >= 2 OR p.view_count <= 100 OR p.post_type = 2) AND c.score >= 1 " +
	"AND v.vote_type = 3 AND v.creation_year = 2010"

// ieTerms is a table's inclusion–exclusion expansion (one positive term
// without a filter).
func ieTerms(t *testing.T, qt *engine.QueryTable) []expr.IETerm {
	t.Helper()
	if qt.Filter == nil {
		return []expr.IETerm{{Sign: 1}}
	}
	terms, err := qt.Filter.InclusionExclusion()
	if err != nil {
		t.Fatal(err)
	}
	return terms
}

// refKeyVector is a column's bucket vector the per-column way: one full
// Marginals pass per (term, shard) for this column alone, summed shard →
// term, negatives clamped and, in estimate mode, sub-half-row buckets
// floored.
func refKeyVector(t *testing.T, infer *core.InferenceEngine, est *core.Estimator, qt *engine.QueryTable, col string) []float64 {
	t.Helper()
	ctxs, ok := infer.Models().BN(qt.Name)
	if !ok {
		t.Fatalf("no BN for %s", qt.Name)
	}
	enc := func(c string, d types.Datum) (float64, bool) {
		if tc := qt.Table.ColByName(c); tc != nil {
			return tc.EncodeDatum(d)
		}
		return d.AsFloat(), false
	}
	var popRows float64
	for _, ctx := range ctxs {
		popRows += ctx.Model().Rows
	}
	scale := float64(qt.Table.NumRows())
	var out []float64
	for _, ctx := range ctxs {
		m := ctx.Model()
		weight := m.Rows / popRows * scale
		for _, term := range ieTerms(t, qt) {
			weights := make([][]float64, len(m.Cols))
			for _, c := range expr.BuildConstraints(term.Preds, enc) {
				w, err := m.WeightsFor(c.Col, c)
				if err != nil {
					t.Fatal(err)
				}
				i := m.ColIndex(c.Col)
				if weights[i] == nil {
					weights[i] = w
					continue
				}
				for b := range w {
					weights[i][b] *= w[b]
				}
			}
			_, belief, _ := ctx.Marginals(weights)
			vec := belief[m.ColIndex(col)]
			if out == nil {
				out = make([]float64, len(vec))
			}
			for b, v := range vec {
				out[b] += term.Sign * weight * v
			}
		}
	}
	for b, v := range out {
		if v < 0 || (est.JoinMode == factorjoin.ModeEstimate && v < 0.5) {
			out[b] = 0
		}
	}
	return out
}

// TestKeyVectorsMatchPerColumnReference checks every vector the compiled
// graph's count source serves, from one BN pass per (table, term, shard)
// for all of a table's join columns, is bit-equal to the per-column
// reference — across OR filters, unfiltered tables and sharded models.
func TestKeyVectorsMatchPerColumnReference(t *testing.T) {
	infer, est, exec := shardedStatsPipeline(t)
	q := analyzed(t, exec, keyVectorJoin)
	var mu sync.Mutex
	served := map[[2]string][]float64{}
	g, err := est.CompileJoin(q.Tables, q.Joins, func(src factorjoin.CountSource) factorjoin.CountSource {
		return func(binding, table, column string, bounds []float64) ([]float64, error) {
			vec, err := src(binding, table, column, bounds)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			served[[2]string{binding, column}] = vec
			mu.Unlock()
			return vec, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range connectedSubsets(q) {
		if _, err := g.Estimate(it.tables, it.conds); err != nil {
			t.Fatal(err)
		}
	}
	joined := map[[2]string]bool{}
	for _, j := range q.Joins {
		joined[[2]string{j.LeftTab, j.LeftCol}] = true
		joined[[2]string{j.RightTab, j.RightCol}] = true
	}
	if len(served) != len(joined) {
		t.Fatalf("source served %d vectors for %d joined columns", len(served), len(joined))
	}
	for _, qt := range q.Tables {
		for key, vec := range served {
			if key[0] != qt.Binding {
				continue
			}
			want := refKeyVector(t, infer, est, qt, key[1])
			if len(vec) != len(want) {
				t.Fatalf("%s.%s: %d buckets, reference %d", qt.Name, key[1], len(vec), len(want))
			}
			for b := range vec {
				if math.Float64bits(vec[b]) != math.Float64bits(want[b]) {
					t.Fatalf("%s.%s bucket %d: served %v, per-column reference %v", qt.Name, key[1], b, vec[b], want[b])
				}
			}
		}
	}
}

// subset is one connected join of a query: as a batch item and as masks
// over the query's tables and conditions.
type subset struct {
	item          engine.JoinBatchItem
	tables, conds uint64
}

// connectedSubsets lists every join of two or more of q's tables that is
// connected by q's conditions (q's join graph is a tree), tables and
// conditions in query order.
func connectedSubsets(q *engine.Query) []subset {
	var out []subset
	for mask := uint64(1); mask < 1<<len(q.Tables); mask++ {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		s := subset{tables: mask}
		in := map[string]bool{}
		for i, qt := range q.Tables {
			if mask&(1<<i) != 0 {
				in[qt.Binding] = true
				s.item.Tables = append(s.item.Tables, qt)
			}
		}
		for i, j := range q.Joins {
			if in[j.LeftTab] && in[j.RightTab] {
				s.conds |= 1 << i
				s.item.Conds = append(s.item.Conds, j)
			}
		}
		if len(s.item.Conds) == len(s.item.Tables)-1 {
			out = append(out, s)
		}
	}
	return out
}

// items is the batch of subsets.
func items(subsets []subset) []engine.JoinBatchItem {
	out := make([]engine.JoinBatchItem, len(subsets))
	for i, s := range subsets {
		out[i] = s.item
	}
	return out
}

// TestKeyVectorsOncePerBinding fans one batch — every connected subset of
// a four-table join, all in one universe — across eight workers and checks
// each table's BN ran exactly once per (inclusion–exclusion term, shard),
// that the results are what cold sequential calls return, and that a
// table whose pass fails fails once: its error is kept for every column
// and every item that needs it.
func TestKeyVectorsOncePerBinding(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	infer, est, exec := shardedStatsPipeline(t)
	q := analyzed(t, exec, keyVectorJoin)
	var mu sync.Mutex
	passes := map[string]int{}
	batch := func(items []engine.JoinBatchItem, failing string) []float64 {
		clear(passes)
		restore := core.SetBNPassHook(func(table string) error {
			mu.Lock()
			defer mu.Unlock()
			passes[table]++
			if table == failing {
				return errors.New("injected BN pass failure")
			}
			return nil
		})
		defer restore()
		return est.EstimateJoinBatch(items, 8)
	}

	batchItems := items(connectedSubsets(q))
	got := batch(batchItems, "")
	for _, qt := range q.Tables {
		ctxs, _ := infer.Models().BN(qt.Name)
		if want := len(ieTerms(t, qt)) * len(ctxs); passes[qt.Name] != want {
			t.Errorf("%s: %d BN passes, want one per (term, shard) = %d", qt.Name, passes[qt.Name], want)
		}
	}
	for k, it := range batchItems {
		infer.FlushCaches()
		if want := est.EstimateJoin(it.Tables, it.Conds); math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Errorf("item %d: batch %v, sequential %v", k, got[k], want)
		}
	}
	if est.Fallbacks() != 0 {
		t.Fatalf("%d fallbacks", est.Fallbacks())
	}

	// A failing posts pass (two join columns) fails once: the error is
	// kept for both columns and every item joining posts falls back.
	needPosts := 0
	for _, it := range batchItems {
		for _, qt := range it.Tables {
			if qt.Name == "posts" {
				needPosts++
			}
		}
	}
	infer.FlushCaches()
	batch(batchItems, "posts")
	if passes["posts"] != 1 {
		t.Errorf("failing posts pass ran %d times, want 1", passes["posts"])
	}
	if est.Fallbacks() != int64(needPosts) {
		t.Errorf("%d fallbacks, want the %d items joining posts", est.Fallbacks(), needPosts)
	}
}
