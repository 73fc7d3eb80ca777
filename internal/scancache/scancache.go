// Package scancache is the content-addressed result cache behind the
// scan daemon. Scans are pure functions of (file set, tool build), so
// a result can be keyed by a hash of its inputs and served to every
// later request with the same content — the architecture that makes
// repeated scanning of popular plugin versions cheap and concurrent
// scanning of the same upload safe (one computation, many readers).
//
// The cache bounds memory with LRU eviction by byte budget, and
// deduplicates identical in-flight computations with singleflight:
// callers of Do with the key of a scan already being computed block
// until that one computation finishes and share its result.
package scancache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/analyzer"
	"repro/internal/obs"
)

// DefaultMaxBytes is the eviction budget used when New is given a
// non-positive one (256 MiB).
const DefaultMaxBytes = 256 << 20

// Key returns the content address of one scan: the SHA-256 of the
// tool/config fingerprint and the target's (path, content hash) pairs.
// Every field is length-prefixed and files are hashed in sorted path
// order, so the same content always hashes identically regardless of
// upload or walk order, while any change to a path, a file body or the
// fingerprint produces a new key. File bodies enter through their
// addresses (SourceFile.Digest), so a target hashed at intake is not
// read again here. The target's display name is deliberately excluded:
// renaming a plugin does not change its scan result.
func Key(t *analyzer.Target, fingerprint string) string {
	h := sha256.New()
	writeField := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeField(fingerprint)
	files := append([]analyzer.SourceFile(nil), t.Files...)
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	for _, f := range files {
		writeField(f.Path)
		writeField(f.Digest())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one cached result with its accounted size.
type entry struct {
	key  string
	res  *analyzer.Result
	size int64
}

// call is one in-flight computation other callers can join.
type call struct {
	done chan struct{}
	res  *analyzer.Result
	err  error
}

// Stats is a point-in-time snapshot of the cache's effectiveness.
type Stats struct {
	// Hits and Misses count lookups (Get and Do combined); Coalesced
	// counts Do callers that joined an identical in-flight computation
	// instead of starting their own.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions and BytesEvicted account LRU pressure.
	Evictions    int64 `json:"evictions"`
	BytesEvicted int64 `json:"bytes_evicted"`
	// Entries and Bytes are current occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// HitRatio is Hits / (Hits + Misses), 0 before any lookup.
	HitRatio float64 `json:"hit_ratio"`
}

// Cache is a concurrency-safe LRU of scan results keyed by content
// address. The recorder (which may be nil) receives the
// scancache_{hits,misses,dedup,evictions,bytes_evicted}_total counters
// and the scancache_{entries,bytes,hit_ratio} gauges.
type Cache struct {
	rec *obs.Recorder

	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element
	inflight map[string]*call

	hits, misses, coalesced int64
	evictions, bytesEvicted int64
}

// New returns an empty cache bounded to maxBytes of cached results
// (DefaultMaxBytes when non-positive).
func New(maxBytes int64, rec *obs.Recorder) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		rec:      rec,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Get returns the cached result for key, marking it most recently
// used. The returned result is shared: callers must not mutate it.
func (c *Cache) Get(key string) (*analyzer.Result, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	var res *analyzer.Result
	if ok {
		c.ll.MoveToFront(el)
		res = el.Value.(*entry).res
		c.hits++
	} else {
		c.misses++
	}
	ratio := c.hitRatioLocked()
	c.mu.Unlock()
	c.rec.Gauge("scancache_hit_ratio").Set(ratio)
	if ok {
		c.rec.Counter("scancache_hits_total").Inc()
		return res, true
	}
	c.rec.Counter("scancache_misses_total").Inc()
	return nil, false
}

// Do returns the result for key, computing it with compute on a miss.
// Concurrent Do calls for the same key run compute once and share the
// outcome (including an error). hit reports whether the result came
// from the cache or a joined in-flight computation rather than this
// caller's own compute. Failed computations are not cached.
func (c *Cache) Do(key string, compute func() (*analyzer.Result, error)) (res *analyzer.Result, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		res = el.Value.(*entry).res
		c.hits++
		ratio := c.hitRatioLocked()
		c.mu.Unlock()
		c.rec.Counter("scancache_hits_total").Inc()
		c.rec.Gauge("scancache_hit_ratio").Set(ratio)
		return res, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		c.rec.Counter("scancache_dedup_total").Inc()
		<-cl.done
		return cl.res, true, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.misses++
	ratio := c.hitRatioLocked()
	c.mu.Unlock()
	c.rec.Counter("scancache_misses_total").Inc()
	c.rec.Gauge("scancache_hit_ratio").Set(ratio)

	cl.res, cl.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil && cl.res != nil {
		c.addLocked(key, cl.res)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.res, false, cl.err
}

// Put inserts an already-computed result under key, exactly as Do
// would after a successful compute (most recently used, evicting under
// budget pressure). The daemon's journal replay uses it to rehydrate
// the cache from persisted results, so re-submitting pre-crash content
// is served byte-identically from cache instead of being re-analyzed.
func (c *Cache) Put(key string, res *analyzer.Result) {
	if res == nil {
		return
	}
	c.mu.Lock()
	c.addLocked(key, res)
	c.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted size of all cached entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a point-in-time effectiveness snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:         c.hits,
		Misses:       c.misses,
		Coalesced:    c.coalesced,
		Evictions:    c.evictions,
		BytesEvicted: c.bytesEvicted,
		Entries:      c.ll.Len(),
		Bytes:        c.bytes,
		HitRatio:     c.hitRatioLocked(),
	}
}

// hitRatioLocked computes Hits/(Hits+Misses); caller holds c.mu.
func (c *Cache) hitRatioLocked() float64 {
	if total := c.hits + c.misses; total > 0 {
		return float64(c.hits) / float64(total)
	}
	return 0
}

// addLocked inserts res as most recently used and evicts from the LRU
// tail while over budget. The newest entry is never evicted, so a
// single result larger than the whole budget still serves its own
// duplicate requests. Caller holds c.mu.
func (c *Cache) addLocked(key string, res *analyzer.Result) {
	if el, ok := c.items[key]; ok {
		// A concurrent filler won the race; keep the existing entry.
		c.ll.MoveToFront(el)
		return
	}
	e := &entry{key: key, res: res, size: resultSize(res)}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		tail := c.ll.Back()
		victim := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.items, victim.key)
		c.bytes -= victim.size
		c.evictions++
		c.bytesEvicted += victim.size
		c.rec.Counter("scancache_evictions_total").Inc()
		c.rec.Counter("scancache_bytes_evicted_total").Add(victim.size)
	}
	c.rec.Gauge("scancache_entries").Set(float64(c.ll.Len()))
	c.rec.Gauge("scancache_bytes").Set(float64(c.bytes))
}

// resultSize accounts a result by its JSON encoding — close enough to
// resident size for budget purposes and exact for what the API would
// serve from this entry.
func resultSize(res *analyzer.Result) int64 {
	b, err := json.Marshal(res)
	if err != nil {
		return 1024
	}
	return int64(len(b))
}
