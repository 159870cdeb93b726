// Package plancache implements HS2's compiled-plan cache (paper §4.3): the
// optimized logical plan of a parameterized statement is stored once per
// normalized digest and reused for every literal variant, so the serving
// hot path skips parsing, analysis and optimization entirely. Entries are
// keyed on (database, normalized digest, metastore schema version,
// plan-affecting configuration fingerprint): any DDL or planner-relevant
// SET invalidates by changing the key, without explicit invalidation
// traffic. The cache is sharded and evicts LRU within each shard.
package plancache

import (
	"container/list"
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/plan"
)

// Key identifies one cached plan template.
type Key struct {
	DB     string // current database at compile time
	Digest string // normalized statement digest (literals hoisted)
	Schema int64  // metastore schema version at compile time
	Conf   string // fingerprint of plan-affecting session configuration
}

func (k Key) hash() uint32 {
	h := fnv.New32a()
	h.Write([]byte(k.DB))
	h.Write([]byte{0})
	h.Write([]byte(k.Digest))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatInt(k.Schema, 10)))
	h.Write([]byte{0})
	h.Write([]byte(k.Conf))
	return h.Sum32()
}

// Entry is a compiled plan template: an optimized logical plan whose
// literals are plan.Param placeholders. Callers must never execute Rel
// directly — plan.BindParams stamps out a private deep copy per run.
type Entry struct {
	Rel           plan.Rel
	Columns       []string // output column names
	Deterministic bool     // false disables result caching for the statement
}

type cached struct {
	key   Key
	entry *Entry
	elem  *list.Element
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*cached
	lru     *list.List // of *cached; front = most recently used
	max     int

	hits, misses int64
}

// Cache is one HS2 instance's plan cache, shared by all sessions.
type Cache struct {
	noCopy noCopy
	shards []*shard
}

// noCopy makes `go vet` (copylocks) flag by-value copies of Cache: the
// shards are shared mutable state behind pointers, so a copied handle
// silently aliases the original instead of being independent.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New creates a plan cache bounded to maxEntries templates.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	n := maxEntries / 16
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	per := maxEntries / n
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*shard, n)}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make(map[Key]*cached), lru: list.New(), max: per}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return c.shards[k.hash()%uint32(len(c.shards))]
}

// Get returns the cached template for k, or nil.
func (c *Cache) Get(k Key) *Entry {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.hits++
		s.lru.MoveToFront(e.elem)
		return e.entry
	}
	s.misses++
	return nil
}

// Put stores a template. Replacing an existing key does not evict; a new
// key evicts the shard's least-recently-used template when full.
func (c *Cache) Put(k Key, e *Entry) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[k]; ok {
		old.entry = e
		s.lru.MoveToFront(old.elem)
		return
	}
	if s.lru.Len() >= s.max {
		back := s.lru.Back()
		if back != nil {
			victim := back.Value.(*cached)
			s.lru.Remove(back)
			delete(s.entries, victim.key)
		}
	}
	ce := &cached{key: k, entry: e}
	ce.elem = s.lru.PushFront(ce)
	s.entries[k] = ce
}

// Stats returns hit/miss counters summed across shards.
func (c *Cache) Stats() (hits, misses int64) {
	for _, s := range c.shards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return
}

// Len reports the number of cached templates (for tests).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
