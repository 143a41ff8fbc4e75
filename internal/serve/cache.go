package serve

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU over rendered response bodies, keyed on
// the KB version plus a canonical request key. Keying on kb.Version means
// entries never need explicit invalidation: every KB mutation (ingest
// write-back, snapshot load) bumps the version, later requests form new
// keys, and the stale generation ages out through normal LRU eviction.
// Hot lookups therefore skip retrieval entirely between KB mutations.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[cacheKey]*list.Element
	// perEndpoint counts hits/misses by the endpoint tag the handlers
	// pass to get, so /v1/stats can show which read path a cache actually
	// serves (the search index work of this repo is invisible in an
	// aggregate counter once lookups dominate). The totals are their sums.
	perEndpoint map[string]*endpointCounts
}

// endpointCounts is the per-endpoint slice of the hit/miss counters.
type endpointCounts struct {
	hits   uint64
	misses uint64
}

type cacheKey struct {
	version uint64
	key     string
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// newLRUCache returns a cache holding up to capacity entries; a
// non-positive capacity disables caching (every get misses, put is a
// no-op), which the benchmarks use to measure the uncached path.
func newLRUCache(capacity int) *lruCache {
	c := &lruCache{cap: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.items = make(map[cacheKey]*list.Element, capacity)
		c.perEndpoint = make(map[string]*endpointCounts, 4)
	}
	return c
}

// get returns the cached body for (version, key) and whether it was
// present, promoting a hit to most-recently-used. endpoint tags the
// calling read path for the per-endpoint hit/miss breakdown.
func (c *lruCache) get(endpoint string, version uint64, key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ec := c.perEndpoint[endpoint]
	if ec == nil {
		ec = &endpointCounts{}
		c.perEndpoint[endpoint] = ec
	}
	el, ok := c.items[cacheKey{version, key}]
	if !ok {
		ec.misses++
		return nil, false
	}
	ec.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under (version, key), evicting the least-recently-used
// entry when full. The caller must not mutate body afterwards.
func (c *lruCache) put(version uint64, key string, body []byte) {
	if c.cap <= 0 {
		return
	}
	ck := cacheKey{version, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ck]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.items[ck] = c.ll.PushFront(&cacheEntry{key: ck, body: body})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
	}
}

// stats returns cumulative hit/miss counts and the current entry count.
func (c *lruCache) stats() (hits, misses uint64, entries int) {
	if c.cap <= 0 {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ec := range c.perEndpoint {
		hits += ec.hits
		misses += ec.misses
	}
	return hits, misses, c.ll.Len()
}

// endpointStats returns a copy of the per-endpoint hit/miss counts.
func (c *lruCache) endpointStats() map[string]endpointCounts {
	if c.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]endpointCounts, len(c.perEndpoint))
	for ep, ec := range c.perEndpoint {
		out[ep] = *ec
	}
	return out
}
