// Package lru is the one bounded cache in the tree: behind the Inference
// Engine's registry of loaded BN models and every tier of state derived
// from them — the estimator's join-vector/subset memo, the engine's
// template plan cache, and the residual corrector's bucket table. It owns
// the decisions those tiers share — a single cost bound, cold-end eviction,
// refusal of an entry that alone exceeds the bound, per-entry physical-table
// lists for scoped invalidation, and the uniform obs.CacheMetrics
// bookkeeping — so a Cache satisfies core.DerivedCache as is.
//
// The map and recency list are unexported and Put, the only publication
// path, takes the entry's table list: no user can hold a resident entry
// that InvalidateTables cannot reach.
package lru

import (
	"container/list"
	"sync"

	"bytecard/internal/obs"
)

// Cache is a bounded LRU map. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	limit int64
	// byBytes selects what limit counts: resident bytes, or entries.
	byBytes bool
	entries map[K]*list.Element
	order   *list.List // of *entry[K, V]; front = most recent
	bytes   int64
	cm      obs.CacheMetrics
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	size   int64
	tables []string
}

// NewEntries creates a cache bounded to limit resident entries.
func NewEntries[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: int64(limit), entries: map[K]*list.Element{}, order: list.New()}
}

// NewBytes creates a cache bounded to limit resident bytes, as summed from
// the sizes passed to Put.
func NewBytes[K comparable, V any](limit int64) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, byBytes: true, entries: map[K]*list.Element{}, order: list.New()}
}

// Get returns the value under key, marks it recently used, and counts the
// lookup as a hit or miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.entries[key]
	if !ok {
		c.cm.Misses.Add(1)
		var zero V
		return zero, false
	}
	c.order.MoveToFront(elem)
	c.cm.Hits.Add(1)
	return elem.Value.(*entry[K, V]).val, true
}

// Peek returns the value under key without touching recency or the hit/miss
// counters — for read-modify-write users that follow up with Put.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[key]; ok {
		return elem.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put publishes val under key (replacing any previous value) as the most
// recent entry, then evicts from the cold end until the bound holds. size is
// the entry's approximate resident bytes; tables lists the physical tables
// the value was derived from — an entry published with none is dropped by
// any InvalidateTables call, since nothing proves it unaffected. The slice
// is retained, not copied. An entry that alone exceeds the bound is refused:
// one oversized value must not wipe the cache.
func (c *Cache[K, V]) Put(key K, val V, size int64, tables []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cost(size) > c.limit {
		return
	}
	if elem, ok := c.entries[key]; ok {
		e := elem.Value.(*entry[K, V])
		c.addBytes(size - e.size)
		e.val, e.size, e.tables = val, size, tables
		c.order.MoveToFront(elem)
	} else {
		c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, size: size, tables: tables})
		c.addBytes(size)
		c.cm.Entries.Add(1)
	}
	for c.used() > c.limit {
		c.removeLocked(c.order.Back())
		c.cm.Evictions.Add(1)
	}
}

// cost is what one entry of the given size charges against the limit.
func (c *Cache[K, V]) cost(size int64) int64 {
	if c.byBytes {
		return size
	}
	return 1
}

// used is the resident total charged against the limit.
func (c *Cache[K, V]) used() int64 {
	if c.byBytes {
		return c.bytes
	}
	return int64(len(c.entries))
}

func (c *Cache[K, V]) addBytes(n int64) {
	c.bytes += n
	c.cm.Bytes.Add(n)
}

// removeLocked unlinks one entry and settles the gauges (c.mu held).
func (c *Cache[K, V]) removeLocked(elem *list.Element) {
	e := c.order.Remove(elem).(*entry[K, V])
	delete(c.entries, e.key)
	c.addBytes(-e.size)
	c.cm.Entries.Add(-1)
}

// Len returns the resident entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Range calls f for each resident entry from most to least recently used.
// f runs under the cache lock and must not call back into the cache.
func (c *Cache[K, V]) Range(f func(key K, val V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for elem := c.order.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*entry[K, V])
		f(e.key, e.val)
	}
}

// InvalidateTables drops every entry derived from any of the named physical
// tables, and every entry published without a table list, returning how
// many were dropped. The scan is linear in resident entries — invalidation
// is model-churn-rate, not query-rate.
func (c *Cache[K, V]) InvalidateTables(tables ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	var next *list.Element
	for elem := c.order.Front(); elem != nil; elem = next {
		next = elem.Next()
		if e := elem.Value.(*entry[K, V]); len(e.tables) == 0 || intersects(e.tables, tables) {
			c.removeLocked(elem)
			n++
		}
	}
	c.cm.Invalidations.Add(int64(n))
	return n
}

// intersects reports whether the two (short) table lists share a name.
func intersects(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Flush drops every entry, returning how many were resident.
func (c *Cache[K, V]) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	clear(c.entries)
	c.order.Init()
	c.addBytes(-c.bytes)
	c.cm.Entries.Add(int64(-n))
	c.cm.Invalidations.Add(int64(n))
	return n
}

// Metrics returns the cache's live counter block.
func (c *Cache[K, V]) Metrics() *obs.CacheMetrics { return &c.cm }

// Stats returns the cache's uniform counter snapshot.
func (c *Cache[K, V]) Stats() obs.CacheSnapshot { return c.cm.Snapshot() }
