package lru

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bytecard/internal/obs"
)

// step is one operation against the cache under test, checking its own
// return value. Values are the sizes they were published with, so a test
// can recompute the byte gauge from Range.
type step func(t *testing.T, c *Cache[string, int64])

func put(key string, size int64, tables ...string) step {
	return func(_ *testing.T, c *Cache[string, int64]) { c.Put(key, size, size, tables, c.Epoch()) }
}

// putAcross reads the epoch, runs between, then publishes under that epoch:
// an entry computed across an invalidation.
func putAcross(key string, size int64, between step) step {
	return func(t *testing.T, c *Cache[string, int64]) {
		epoch := c.Epoch()
		between(t, c)
		c.Put(key, size, size, nil, epoch)
	}
}

func get(key string, want int64, wantOK bool) step {
	return func(t *testing.T, c *Cache[string, int64]) {
		t.Helper()
		if v, ok := c.Get(key); v != want || ok != wantOK {
			t.Errorf("Get(%q) = (%d, %v), want (%d, %v)", key, v, ok, want, wantOK)
		}
	}
}

func peek(key string, want int64, wantOK bool) step {
	return func(t *testing.T, c *Cache[string, int64]) {
		t.Helper()
		if v, ok := c.Peek(key); v != want || ok != wantOK {
			t.Errorf("Peek(%q) = (%d, %v), want (%d, %v)", key, v, ok, want, wantOK)
		}
	}
}

func invalidate(want int, tables ...string) step {
	return func(t *testing.T, c *Cache[string, int64]) {
		t.Helper()
		if n := c.InvalidateTables(tables...); n != want {
			t.Errorf("InvalidateTables(%v) dropped %d, want %d", tables, n, want)
		}
	}
}

func flush(want int) step {
	return func(t *testing.T, c *Cache[string, int64]) {
		t.Helper()
		if n := c.Flush(); n != want {
			t.Errorf("Flush dropped %d, want %d", n, want)
		}
	}
}

func entries(limit int) func() *Cache[string, int64] {
	return func() *Cache[string, int64] { return NewEntries[string, int64](limit) }
}

func bytes(limit int64) func() *Cache[string, int64] {
	return func() *Cache[string, int64] { return NewBytes[string, int64](limit) }
}

func TestCache(t *testing.T) {
	cases := []struct {
		name  string
		new   func() *Cache[string, int64]
		steps []step
		// order is the resident keys, most recent first.
		order []string
		stats obs.CacheSnapshot
	}{
		{
			name: "eviction follows recency: Get touches, Peek does not",
			new:  entries(2),
			steps: []step{
				put("a", 10), put("b", 20),
				get("a", 10, true),  // b becomes coldest
				peek("b", 20, true), // and stays coldest
				put("c", 30),        // evicts b, not the touched a
				get("b", 0, false),
				get("a", 10, true),
				get("c", 30, true),
			},
			order: []string{"c", "a"},
			stats: obs.CacheSnapshot{Hits: 3, Misses: 1, Evictions: 1, Bytes: 40, Entries: 2},
		},
		{
			name: "replace updates in place, moves to front, settles the byte gauge",
			new:  entries(2),
			steps: []step{
				put("a", 10), put("b", 20),
				put("a", 15), // no duplicate, a is now most recent
				get("a", 15, true),
				put("c", 5), // so b is the one evicted
			},
			order: []string{"c", "a"},
			stats: obs.CacheSnapshot{Hits: 1, Evictions: 1, Bytes: 20, Entries: 2},
		},
		{
			name: "byte bound: one insert evicts as many cold entries as it needs",
			new:  bytes(100),
			steps: []step{
				put("a", 30), put("b", 30), put("c", 30),
				put("d", 60), // 150 resident: a then b go
			},
			order: []string{"d", "c"},
			stats: obs.CacheSnapshot{Evictions: 2, Bytes: 90, Entries: 2},
		},
		{
			name: "byte bound: an entry larger than the whole budget is refused",
			new:  bytes(100),
			steps: []step{
				put("a", 40), put("b", 40),
				put("huge", 101), // must not wipe the cache
				get("huge", 0, false),
				put("a", 101), // refused replace keeps the old value and order
				peek("a", 40, true),
			},
			order: []string{"b", "a"},
			stats: obs.CacheSnapshot{Misses: 1, Bytes: 80, Entries: 2},
		},
		{
			name: "byte bound: a replace that grows past the budget evicts cold entries",
			new:  bytes(100),
			steps: []step{
				put("a", 40), put("b", 40),
				put("b", 70),
			},
			order: []string{"b"},
			stats: obs.CacheSnapshot{Evictions: 1, Bytes: 70, Entries: 1},
		},
		{
			name: "entry bound ignores sizes",
			new:  entries(2),
			steps: []step{
				put("a", 1<<40), put("b", 1<<40),
			},
			order: []string{"b", "a"},
			stats: obs.CacheSnapshot{Bytes: 2 << 40, Entries: 2},
		},
		{
			name: "table-scoped invalidation, then flush",
			new:  entries(8),
			steps: []step{
				put("p1", 10, "title", "cast_info"),
				put("p2", 10, "movie_keyword", "title"),
				put("p3", 10, "movie_companies"),
				invalidate(2, "cast_info", "movie_keyword"),
				invalidate(0, "absent_table"),
				get("p3", 10, true),
				flush(1),
				flush(0),
			},
			order: nil,
			stats: obs.CacheSnapshot{Hits: 1, Invalidations: 3},
		},
		{
			name: "an entry published without tables is dropped by any table invalidation",
			new:  entries(8),
			steps: []step{
				put("scoped", 10, "fact"),
				put("opaque", 10),
				invalidate(1, "dim"),
				invalidate(0),
				peek("scoped", 10, true),
			},
			order: []string{"scoped"},
			stats: obs.CacheSnapshot{Invalidations: 1, Bytes: 10, Entries: 1},
		},
		{
			name: "replace adopts the new table list",
			new:  entries(8),
			steps: []step{
				put("k", 10, "old"),
				put("k", 10, "new"),
				invalidate(0, "old"),
				invalidate(1, "new"),
			},
			order: nil,
			stats: obs.CacheSnapshot{Invalidations: 1},
		},
		{
			name: "a Put computed across an invalidation or flush is dropped",
			new:  entries(8),
			steps: []step{
				put("kept", 10, "dim"),
				putAcross("stale", 10, invalidate(0, "fact")),
				putAcross("stale", 10, invalidate(0)),
				putAcross("stale", 10, flush(1)),
				get("stale", 0, false),
				put("fresh", 10),
			},
			order: []string{"fresh"},
			stats: obs.CacheSnapshot{Misses: 1, Invalidations: 1, Bytes: 10, Entries: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.new()
			for _, s := range tc.steps {
				s(t, c)
			}
			var order []string
			c.Range(func(k string, _ int64) { order = append(order, k) })
			if !reflect.DeepEqual(order, tc.order) {
				t.Errorf("resident order = %v, want %v", order, tc.order)
			}
			if c.Len() != len(tc.order) {
				t.Errorf("Len = %d, want %d", c.Len(), len(tc.order))
			}
			if got := c.Stats(); got != tc.stats {
				t.Errorf("stats = %+v, want %+v", got, tc.stats)
			}
			if c.Metrics().Snapshot() != c.Stats() {
				t.Error("Metrics() is not the block Stats() digests")
			}
		})
	}
}

// TestCacheConcurrent hammers every method from several goroutines (run
// under -race) and then checks the invariants the gauges promise.
func TestCacheConcurrent(t *testing.T) {
	for _, c := range []*Cache[string, int64]{NewEntries[string, int64](16), NewBytes[string, int64](400)} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					key := fmt.Sprintf("k%d", (g*7+i)%40)
					switch i % 9 {
					case 0, 1, 2:
						c.Put(key, int64(10+i%30), int64(10+i%30), []string{fmt.Sprintf("t%d", i%5)}, c.Epoch())
					case 3:
						c.Put(key, 25, 25, nil, c.Epoch())
					case 4, 5:
						c.Get(key)
					case 6:
						c.Peek(key)
					case 7:
						c.InvalidateTables(fmt.Sprintf("t%d", i%5))
					case 8:
						if i%500 == 8 {
							c.Flush()
						}
						c.Range(func(string, int64) {})
						c.Stats()
					}
				}
			}(g)
		}
		wg.Wait()

		var n, sum int64
		c.Range(func(_ string, size int64) { n++; sum += size })
		s := c.Stats()
		if s.Entries != n || int64(c.Len()) != n {
			t.Errorf("entries gauge %d, Len %d, resident %d", s.Entries, c.Len(), n)
		}
		if s.Bytes != sum {
			t.Errorf("bytes gauge %d, resident sizes sum to %d", s.Bytes, sum)
		}
		if c.used() > c.limit {
			t.Errorf("bound exceeded: %d > %d", c.used(), c.limit)
		}
	}
}
