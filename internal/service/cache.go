package service

import (
	"container/list"
	"sync"

	"msrnet/internal/obs"
)

// resultCache is a fixed-capacity LRU of job results keyed by the
// canonical content hash of the net plus its options (Job.cacheKey).
// Stored Results are treated as immutable: Get returns the shared value
// and callers must not mutate it (the HTTP layer only stamps the
// per-request ID/Cached fields on a copy). All methods are safe for
// concurrent use; hit/miss/eviction counts feed the svc/cache_*
// counters.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	idx map[string]*list.Element

	hits, misses, evictions, inserts *obs.Counter
	size                             *obs.Gauge
}

type cacheEntry struct {
	key string
	res Result
}

// newResultCache builds a cache of the given capacity; capacity ≤ 0
// disables caching (every Get misses, Put drops). The registry may be
// nil.
func newResultCache(capacity int, reg *obs.Registry) *resultCache {
	return &resultCache{
		cap:       capacity,
		ll:        list.New(),
		idx:       map[string]*list.Element{},
		hits:      reg.Counter("svc/cache_hits"),
		misses:    reg.Counter("svc/cache_misses"),
		evictions: reg.Counter("svc/cache_evictions"),
		inserts:   reg.Counter("svc/cache_inserts"),
		size:      reg.Gauge("svc/cache_size"),
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *resultCache) Get(key string) (Result, bool) {
	if c.cap <= 0 {
		c.misses.Inc()
		return Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.misses.Inc()
		return Result{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).res, true
}

// Put stores a result, evicting the least recently used entry when the
// cache is full. Failed results are not worth caching — callers only
// Put successes.
func (c *resultCache) Put(key string, res Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.inserts.Inc()
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.size.Set(int64(c.ll.Len()))
}

// cacheable strips a result's per-request decoration — the client's
// label, the cached flag and the explain report — leaving the bytes
// every cache entry holds: the local put after a solve, a peer's shard
// put, and the warm-up from WAL-restored results.
func cacheable(res Result) Result {
	res.ID, res.Cached, res.Explain = "", false, nil
	return res
}

// Len reports the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
