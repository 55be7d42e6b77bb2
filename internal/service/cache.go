package service

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of one engine cache's
// effectiveness (the solver cache and the simulation cache report
// independently).
type CacheStats struct {
	// Hits counts lookups answered from memory.
	Hits uint64
	// Misses counts lookups not answered from memory, whose caller went on
	// to lead a solver run. Joining a concurrent in-flight solve counts as
	// neither — see Stats.SharedInFlight.
	Misses uint64
	// Evictions counts entries displaced by the LRU policy.
	Evictions uint64
	// Entries is the current number of cached solutions.
	Entries int
	// Capacity is the configured maximum number of entries.
	Capacity int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// lruCache is a mutex-guarded LRU keyed by canonical strings. The engine
// instantiates one per result family — solver output (*core.Performance,
// keyed by fingerprint + method) and simulation output (core.SimResult,
// keyed by fingerprint + seed + precision) — so the two workloads never
// evict each other, plus one for hoisted spectral solvers (keyed by
// environment fingerprint). Cached values are handed out to concurrent
// readers without copying, so they must be immutable once inserted or
// synchronise themselves.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	if capacity <= 0 {
		return nil // cache disabled
	}
	return &lruCache[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value and promotes the entry. It does not touch
// the hit/miss counters: the engine records those once it knows how the
// lookup resolved (hit, fresh run, or in-flight join).
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

func (c *lruCache[V]) recordHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

func (c *lruCache[V]) recordMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// add inserts (or refreshes) an entry, evicting the least recently used
// entry when full.
func (c *lruCache[V]) add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.insert(key, val)
}

// getOrAdd returns the entry under key, promoting it, or inserts and
// returns mk() when there is none — in one critical section, so
// concurrent callers of one key always share a single value.
func (c *lruCache[V]) getOrAdd(key string, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).val
	}
	val := mk()
	c.insert(key, val)
	return val
}

// insert adds an entry absent from the cache, evicting the least recently
// used entry when full. The caller holds c.mu.
func (c *lruCache[V]) insert(key string, val V) {
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry[V]).key)
			c.evictions++
		}
	}
	c.items[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
}

// export snapshots up to limit entries, most recently used first — the
// traversal order that makes a truncated snapshot keep the hottest
// entries. limit <= 0 exports everything.
func (c *lruCache[V]) export(limit int) (keys []string, vals []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.order.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	keys = make([]string, 0, n)
	vals = make([]V, 0, n)
	for el := c.order.Front(); el != nil && len(keys) < n; el = el.Next() {
		ent := el.Value.(*cacheEntry[V])
		keys = append(keys, ent.key)
		vals = append(vals, ent.val)
	}
	return keys, vals
}

// stats snapshots the counters.
func (c *lruCache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Capacity:  c.cap,
	}
}
