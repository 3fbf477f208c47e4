package service

import (
	"container/list"
	"encoding/json"
	"log/slog"
	"sync"
	"sync/atomic"

	"buffy/internal/store"
)

// resultCache maps content-address keys to completed Results across two
// tiers: a bounded in-memory LRU in front of an optional durable store.
// Entries are immutable once cached: hits return the shared *Result, which
// callers must treat as read-only (the engine copies the top-level struct
// before stamping per-response fields like CacheHit).
//
// Disk writes ride a bounded queue drained by a single writer goroutine,
// so disk latency never blocks a solver worker; a full queue drops the
// write (the answer is still cached in memory, only restart warmth is
// lost) and counts it.
type resultCache struct {
	mu      sync.Mutex
	max     int        // memory-tier capacity; <= 0 disables the tier
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	store     *store.Store // nil: memory tier only
	writes    chan storeWrite
	writer    sync.WaitGroup
	closeOnce sync.Once
	dropped   atomic.Int64 // write-behinds that never reached the store
	log       *slog.Logger
}

type cacheEntry struct {
	key string
	res *Result
}

// storeWrite is one pending write-behind: a cache key and its
// JSON-encoded conclusive Result.
type storeWrite struct {
	key     string
	payload []byte
}

func newResultCache(max int, st *store.Store, log *slog.Logger) *resultCache {
	c := &resultCache{max: max, order: list.New(), entries: make(map[string]*list.Element), store: st, log: log}
	if st != nil {
		// Room for a burst of solves finishing while one fsync is in
		// flight; past it, writes drop rather than stall a worker.
		c.writes = make(chan storeWrite, 256)
		c.writer.Add(1)
		go c.writeBehind()
	}
	return c
}

// get looks key up in memory, then reads it through the disk tier, and
// returns the result with the name of the tier that served it. A disk hit
// is promoted into memory.
// The store has already verified checksum and pipeline fingerprint; what
// remains is semantic validation of the decoded payload — an entry that
// is bit-exact yet undecodable or inconclusive is quarantined, never
// served.
func (c *resultCache) get(key string) (*Result, string, bool) {
	if res, ok := c.memGet(key); ok {
		return res, CacheTierMemory, true
	}
	if c.store == nil {
		return nil, "", false
	}
	payload, ok := c.store.Get(key)
	if !ok {
		return nil, "", false
	}
	var disk Result
	if err := json.Unmarshal(payload, &disk); err != nil {
		c.store.Quarantine(key, "decode")
		return nil, "", false
	}
	if !disk.conclusive() {
		c.store.Quarantine(key, "inconclusive")
		return nil, "", false
	}
	// The promoted copy re-enters memory as a fresh answer; the serving
	// path stamps CacheHit/CacheTier per response.
	disk.CacheHit, disk.CacheTier = false, ""
	c.memPut(key, &disk)
	return &disk, CacheTierDisk, true
}

// put caches a conclusive result in memory and hands it to the disk
// writer without blocking.
func (c *resultCache) put(key string, res *Result) {
	c.memPut(key, res)
	if c.store == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		c.dropped.Add(1)
		c.log.Warn("store write dropped: result not serializable", "key", key, "err", err.Error())
		return
	}
	select {
	case c.writes <- storeWrite{key: key, payload: payload}:
	default:
		c.dropped.Add(1)
	}
}

// writeBehind drains the write queue. Write failures (full disk,
// read-only store) are logged and counted by the store; the in-memory
// answer the client already received is unaffected.
func (c *resultCache) writeBehind() {
	defer c.writer.Done()
	for w := range c.writes {
		if err := c.store.Put(w.key, w.payload); err != nil {
			c.log.Warn("store write failed", "key", w.key, "err", err.Error())
		}
	}
}

// close flushes the queued writes and closes the store so the entry set
// is durable for the next process. No put may follow; repeated calls are
// no-ops.
func (c *resultCache) close() {
	c.closeOnce.Do(func() {
		if c.store != nil {
			close(c.writes)
			c.writer.Wait()
			c.store.Close()
		}
	})
}

func (c *resultCache) memGet(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *resultCache) memPut(key string, res *Result) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the memory tier's entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
