package serve

import (
	"container/list"
	"hash/fnv"
	"sync"

	"ringsched/internal/metrics"
)

// cache is the sharded LRU result cache. Keys are canonical request
// identities — (instance fingerprint, endpoint, algorithm, options) —
// and values are fully marshaled HTTP response bodies, so a hit costs a
// shard lock and one write, no recomputation and no re-encoding. The
// shard is picked by FNV-1a of the key; each shard holds its own lock,
// map and recency list, so concurrent handlers contend only when they
// hash to the same shard.
type cache struct {
	shards   []cacheShard
	perShard int
	stats    *metrics.Counters[stat]
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*list.Element
	ll *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	body []byte
}

// newCache builds a cache of `entries` total capacity over `shards`
// shards (both forced to sane minimums), reporting hit/miss/eviction
// activity into the owning server's stats block.
func newCache(entries, shards int, stats *metrics.Counters[stat]) *cache {
	if shards < 1 {
		shards = 1
	}
	if entries < shards {
		entries = shards
	}
	c := &cache{shards: make([]cacheShard, shards), perShard: entries / shards, stats: stats}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].ll = list.New()
	}
	return c
}

func (c *cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// get returns the cached response body for key, marking it most
// recently used. The returned slice is shared — callers must not
// mutate it (handlers only ever write it to the wire).
func (c *cache) get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		c.stats.Inc(statCacheMisses)
		return nil, false
	}
	s.ll.MoveToFront(el)
	c.stats.Inc(statCacheHits)
	return el.Value.(*cacheEntry).body, true
}

// peek is get without the hit/miss accounting: the singleflight leader
// uses it to close the join-vs-finished race without double-counting
// the lookup its request already made.
func (c *cache) peek(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts (or refreshes) a response body, evicting the shard's
// least recently used entry when the shard is at capacity.
func (c *cache) put(key string, body []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheEntry).body = body
		s.ll.MoveToFront(el)
		return
	}
	for s.ll.Len() >= c.perShard {
		last := s.ll.Back()
		if last == nil {
			break
		}
		s.ll.Remove(last)
		delete(s.m, last.Value.(*cacheEntry).key)
		c.stats.Inc(statEvictions)
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, body: body})
}

// len returns the total number of cached entries across shards.
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
