package service

import (
	"errors"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := newResultCache(2, nil, nil)
	c.put("a", &Result{Status: "a"})
	c.put("b", &Result{Status: "b"})
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", &Result{Status: "c"}) // evicts b (a was just used)
	if _, _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, tier, ok := c.get("a"); !ok || tier != CacheTierMemory {
		t.Errorf("a: ok=%v tier=%q, want a memory hit (recently used)", ok, tier)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestResultCacheQuarantinesUnservableEntries plants store entries that
// pass the store's own checksum and fingerprint checks but are no
// servable answer: undecodable Result JSON, or an inconclusive status.
// The disk tier must quarantine them and the query must re-solve.
func TestResultCacheQuarantinesUnservableEntries(t *testing.T) {
	for name, payload := range map[string]string{
		"undecodable":  `{"kind": "witness", "status": `,
		"inconclusive": `{"kind": "witness", "status": "unknown", "cache_hit": false}`,
	} {
		t.Run(name, func(t *testing.T) {
			st := openTestStore(t, t.TempDir(), "")
			req := fqWitnessReq(6)
			if err := st.Put(req.CacheKey(), []byte(payload)); err != nil {
				t.Fatal(err)
			}
			e := New(Config{Workers: 1, Store: st})
			defer shutdown(t, e)

			j, err := e.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			res := waitDone(t, j, 2*time.Minute)
			if res.CacheHit {
				t.Fatalf("unservable store entry served from the %s tier", res.CacheTier)
			}
			if res.Status != "witness" {
				t.Fatalf("re-solve status = %s, want witness", res.Status)
			}
			if q := e.Metrics().Store.Quarantined; q != 1 {
				t.Errorf("quarantined = %d, want 1", q)
			}
			// The re-solved answer replaces the bad entry on disk.
			waitStoreWrites(t, e, 2)
		})
	}
}

// TestDiskOnlyCacheServesRepeats disables the memory tier: with a Store,
// every repeat is still a hit, each served (and verified) by the disk
// tier, and nothing is resident in memory.
func TestDiskOnlyCacheServesRepeats(t *testing.T) {
	e := New(Config{Workers: 1, CacheEntries: -1, Store: openTestStore(t, t.TempDir(), "")})
	defer shutdown(t, e)

	j, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	if cold := waitDone(t, j, 2*time.Minute); cold.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	waitStoreWrites(t, e, 1)
	const repeats = 3
	for i := 0; i < repeats; i++ {
		j, err := e.Submit(fqWitnessReq(6))
		if err != nil {
			t.Fatal(err)
		}
		res := waitDone(t, j, 10*time.Second)
		if !res.CacheHit || res.CacheTier != CacheTierDisk || res.Status != "witness" {
			t.Fatalf("repeat %d: cache_hit=%v tier=%q status=%s, want a disk hit", i, res.CacheHit, res.CacheTier, res.Status)
		}
	}
	m := e.Metrics()
	if m.CacheEntries != 0 || m.Store.Hits != repeats || m.SolveCount != 1 {
		t.Errorf("cache_entries=%d store hits=%d solves=%d, want 0/%d/1", m.CacheEntries, m.Store.Hits, m.SolveCount, repeats)
	}
}

// TestClosedEngineRefusesBeforeCacheLookup: after Shutdown, a Submit for
// a stored key is refused without reading the store, so refused requests
// never count as store hits.
func TestClosedEngineRefusesBeforeCacheLookup(t *testing.T) {
	e := New(Config{Workers: 1, CacheEntries: -1, Store: openTestStore(t, t.TempDir(), "")})
	j, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 2*time.Minute)
	waitStoreWrites(t, e, 1)
	shutdown(t, e)

	if _, err := e.Submit(fqWitnessReq(6)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: err = %v, want ErrClosed", err)
	}
	if h := e.Metrics().Store.Hits; h != 0 {
		t.Errorf("store hits = %d after a refused submit, want 0", h)
	}
}
