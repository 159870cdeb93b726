// Package llap implements Live Long and Process (paper §5.1): persistent
// multi-threaded query executors and a multi-tenant in-memory cache.
//
//   - The data cache is addressed by (FileID, stripe, column) — the
//     row-group/column-group chunk addressing of paper Figure 5 — and uses
//     an LRFU (Least Recently/Frequently Used) eviction policy tuned for
//     analytic scan patterns. FileID-based addressing makes the cache an
//     MVCC view: ACID controls visibility at the file level, so new data
//     never invalidates cached chunks of immutable files.
//   - The metadata cache keeps parsed file footers so planning and stripe
//     selection avoid re-reading file tails.
//   - Daemons provide a fixed pool of persistent executors; query
//     fragments borrow executors without container start-up cost.
package llap

import (
	"container/list"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dfs"
	"repro/internal/orc"
)

// chunkKey addresses one column chunk of one file generation.
type chunkKey struct {
	fileID uint64
	stripe int
	col    int
	off    int64
}

type chunkEntry struct {
	key  chunkKey
	data []byte
	crf  float64 // combined recency-frequency value (LRFU)
	last int64   // logical time of last access
}

// CacheStats counts cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	UsedBytes int64
}

// Cache is the LLAP data cache: an orc.ChunkReader that fills itself on
// miss and serves immutable chunks on hit.
type Cache struct {
	mu       sync.Mutex
	fs       *dfs.FS
	capacity int64
	used     int64
	entries  map[chunkKey]*chunkEntry
	clock    int64
	lambda   float64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewCache creates a cache with the given capacity in bytes.
func NewCache(fs *dfs.FS, capacity int64) *Cache {
	return &Cache{
		fs:       fs,
		capacity: capacity,
		entries:  make(map[chunkKey]*chunkEntry),
		lambda:   0.01, // LRFU decay: closer to LFU for scan-heavy loads
	}
}

// ReadChunk implements orc.ChunkReader with caching.
func (c *Cache) ReadChunk(path string, fileID uint64, stripe, col int, off, length int64) ([]byte, error) {
	key := chunkKey{fileID: fileID, stripe: stripe, col: col, off: off}
	c.mu.Lock()
	c.clock++
	now := c.clock
	if e, ok := c.entries[key]; ok {
		e.crf = 1 + e.crf*math.Pow(2, -c.lambda*float64(now-e.last))
		e.last = now
		data := e.data
		c.mu.Unlock()
		c.hits.Add(1)
		// Decoders treat encoded chunks as immutable; copying here would
		// tax every hit to defend against a write that never happens (the
		// -tags stress deep-freeze build verifies the contract).
		//lint:ignore no-alias-escape encoded chunks are immutable by contract; per-hit copies would defeat the cache
		return data, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	data, err := c.fs.ReadAt(path, off, length)
	if err != nil {
		return nil, err
	}
	c.insert(key, data)
	return data, nil
}

func (c *Cache) insert(key chunkKey, data []byte) {
	size := int64(len(data))
	if size > c.capacity {
		return // larger than the cache: serve uncached
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for c.used+size > c.capacity {
		c.evictOneLocked()
	}
	c.entries[key] = &chunkEntry{key: key, data: data, crf: 1, last: c.clock}
	c.used += size
}

// evictOneLocked removes the entry with the lowest LRFU value.
func (c *Cache) evictOneLocked() {
	var victim *chunkEntry
	lowest := math.Inf(1)
	now := c.clock
	for _, e := range c.entries {
		v := e.crf * math.Pow(2, -c.lambda*float64(now-e.last))
		if v < lowest {
			lowest = v
			victim = e
		}
	}
	if victim == nil {
		return
	}
	delete(c.entries, victim.key)
	c.used -= int64(len(victim.data))
	c.evictions.Add(1)
}

// Stats returns cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	used := c.used
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		UsedBytes: used,
	}
}

// MetadataCache keeps parsed ORC readers (file footers, stripe statistics)
// keyed by path and validated by FileID, so repeated scans skip footer
// reads entirely — including for files whose data was never cached
// (paper §5.1: metadata is cached even for data that was never in cache).
// Capacity is an entry count with LRU eviction: footers are small and
// uniform, so recency matters more than byte-accurate charging here.
type MetadataCache struct {
	mu       sync.Mutex
	capacity int
	readers  map[string]*list.Element // of metaEntry
	lru      list.List                // front = most recent
	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
}

type metaEntry struct {
	path   string
	reader *orc.Reader
}

// DefaultMetadataCapacity bounds the footer cache when no explicit size is
// given; at a few KB per parsed footer this stays well under a megabyte.
const DefaultMetadataCapacity = 1024

// MetaStats counts metadata-cache effectiveness, reported alongside
// CacheStats.
type MetaStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
}

// NewMetadataCache returns an empty metadata cache with the default
// capacity.
func NewMetadataCache() *MetadataCache { return NewMetadataCacheSize(DefaultMetadataCapacity) }

// NewMetadataCacheSize returns an empty metadata cache holding at most
// capacity parsed footers.
func NewMetadataCacheSize(capacity int) *MetadataCache {
	if capacity <= 0 {
		capacity = DefaultMetadataCapacity
	}
	return &MetadataCache{capacity: capacity, readers: make(map[string]*list.Element)}
}

// Reader returns a cached ORC reader for the file, reopening when the file
// generation changed. The returned reader is shared across queries; callers
// that need query-local cache wiring must use orc.Reader.WithSources rather
// than mutating it.
func (m *MetadataCache) Reader(fs *dfs.FS, path string) (*orc.Reader, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if el, ok := m.readers[path]; ok {
		if r := el.Value.(*metaEntry).reader; r.FileID() == st.FileID {
			m.lru.MoveToFront(el)
			m.mu.Unlock()
			m.hits.Add(1)
			return r, nil
		}
		// Stale generation: drop so the slot is refilled below.
		m.lru.Remove(el)
		delete(m.readers, path)
	}
	m.mu.Unlock()
	m.misses.Add(1)
	r, err := orc.NewReader(fs, path)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if el, ok := m.readers[path]; ok {
		// Lost a race with a concurrent fill; keep the resident entry.
		m.lru.MoveToFront(el)
		r = el.Value.(*metaEntry).reader
	} else {
		m.readers[path] = m.lru.PushFront(&metaEntry{path: path, reader: r})
		for m.lru.Len() > m.capacity {
			back := m.lru.Back()
			delete(m.readers, back.Value.(*metaEntry).path)
			m.lru.Remove(back)
			m.evicted.Add(1)
		}
	}
	m.mu.Unlock()
	return r, nil
}

// Invalidate drops the cached footer for a path, e.g. after the path was
// overwritten or removed outside the FileID-versioned write path.
func (m *MetadataCache) Invalidate(path string) {
	m.mu.Lock()
	if el, ok := m.readers[path]; ok {
		m.lru.Remove(el)
		delete(m.readers, path)
	}
	m.mu.Unlock()
}

// InvalidatePrefix drops every cached footer under a path prefix, used when
// a table or partition directory is dropped or truncated.
func (m *MetadataCache) InvalidatePrefix(prefix string) {
	m.mu.Lock()
	for path, el := range m.readers {
		if strings.HasPrefix(path, prefix) {
			m.lru.Remove(el)
			delete(m.readers, path)
		}
	}
	m.mu.Unlock()
}

// Stats returns metadata-cache counters.
func (m *MetadataCache) Stats() MetaStats {
	m.mu.Lock()
	n := m.lru.Len()
	m.mu.Unlock()
	return MetaStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evicted.Load(),
		Entries:   n,
		Capacity:  m.capacity,
	}
}

// Hits reports metadata cache hits (for tests).
func (m *MetadataCache) Hits() int64 { return m.hits.Load() }

// Daemons is the pool of persistent executors. Executors are acquired per
// query fragment; there is no per-task start-up cost, unlike YARN
// containers.
type Daemons struct {
	slots chan struct{}
	// multi serializes the acquirers of more than one slot. Slots are
	// taken one receive at a time, so two such acquirers side by side could
	// each hold part of the pool and wait for ever on the rest; behind the
	// mutex only one waits at a time, and only on slots held by running
	// fragments, which release without taking any lock.
	multi sync.Mutex
}

// NewDaemons starts a pool with the given total executor count.
func NewDaemons(executors int) *Daemons {
	d := &Daemons{slots: make(chan struct{}, executors)}
	for i := 0; i < executors; i++ {
		d.slots <- struct{}{}
	}
	return d
}

// Acquire takes n executors, blocking until available; the returned
// function releases them. Acquisition is all-or-nothing with respect to
// other blocking acquirers: no two of them ever hold a partial grant.
func (d *Daemons) Acquire(n int) (release func()) {
	if n > cap(d.slots) {
		n = cap(d.slots)
	}
	if n > 1 {
		d.multi.Lock()
	}
	for i := 0; i < n; i++ {
		<-d.slots
	}
	if n > 1 {
		d.multi.Unlock()
	}
	return func() {
		for i := 0; i < n; i++ {
			d.slots <- struct{}{}
		}
	}
}

// TryAcquire takes n executors without blocking.
func (d *Daemons) TryAcquire(n int) (release func(), ok bool) {
	if n > cap(d.slots) {
		n = cap(d.slots)
	}
	taken := 0
	for taken < n {
		select {
		case <-d.slots:
			taken++
		default:
			for i := 0; i < taken; i++ {
				d.slots <- struct{}{}
			}
			return nil, false
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			d.slots <- struct{}{}
		}
	}, true
}

// Executors returns the pool size.
func (d *Daemons) Executors() int { return cap(d.slots) }
