//go:build faultinject

package service

import (
	"syscall"
	"testing"
	"time"

	"buffy/internal/faultinject"
	"buffy/internal/store"
)

// Durable-tier chaos at the service level: every injected filesystem
// fault — full disk, torn write, bit rot, read-only store — must degrade
// to a cache miss (a re-solve with the correct answer), never to a
// wrong, stale, or partial answer, with the failure visible in the
// labeled buffy_store_* counters.

// solveAndFlush submits the CS1 witness query, requires the correct
// verdict, and waits for the write-behind to reach the store (attempted
// or failed — writes+write_errors+dropped covers both).
func solveAndFlush(t *testing.T, e *Engine) *Result {
	t.Helper()
	job, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, job, 2*time.Minute)
	assertNoWrongVerdict(t, res)
	if res.Status != "witness" {
		t.Fatalf("status = %q, want witness", res.Status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := e.Metrics().Store; st != nil && st.Writes+st.WriteErrors+st.Dropped > 0 {
			return res
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("write-behind never reached the store")
	return nil
}

// TestChaosStoreENOSPC fills the disk under the write-behind: the answer
// is still served and cached in memory, the store counts a write error,
// and a restart over the same directory is a plain miss that re-solves
// correctly.
func TestChaosStoreENOSPC(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	e := New(Config{Workers: 1, Store: openTestStore(t, dir, "")})

	faultinject.Enable(faultinject.PointStoreWrite, faultinject.Fault{Err: syscall.ENOSPC, Times: 1})
	solveAndFlush(t, e)
	st := e.Metrics().Store
	if st.WriteErrors != 1 || st.Entries != 0 {
		t.Fatalf("store snapshot = %+v, want the ENOSPC write counted and no entry", st)
	}
	// The in-memory tier still has the answer.
	j, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	if res := waitDone(t, j, time.Minute); !res.CacheHit || res.CacheTier != CacheTierMemory {
		t.Fatalf("memory tier lost the answer under ENOSPC (hit=%v tier=%q)", res.CacheHit, res.CacheTier)
	}
	shutdown(t, e)

	// Restart: nothing durable landed, so the query re-solves — a miss,
	// not a wrong or partial answer.
	e2 := New(Config{Workers: 1, Store: openTestStore(t, dir, "")})
	defer shutdown(t, e2)
	j2, err := e2.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j2, 2*time.Minute)
	assertNoWrongVerdict(t, res)
	if res.CacheHit {
		t.Fatal("restart served a hit although the write never landed")
	}
	if res.Status != "witness" {
		t.Fatalf("recovery status = %q, want witness", res.Status)
	}
}

// TestChaosStoreTornWrite tears the entry mid-write (acknowledged, half
// persisted): the restart's recovery scan must quarantine it and the
// replay must be a miss that re-solves to the correct verdict.
func TestChaosStoreTornWrite(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	e := New(Config{Workers: 1, Store: openTestStore(t, dir, "")})
	faultinject.Enable(faultinject.PointStoreCorrupt, faultinject.Fault{TearAfter: 64, Times: 1})
	solveAndFlush(t, e)
	shutdown(t, e)

	e2 := New(Config{Workers: 1, Store: openTestStore(t, dir, "")})
	defer shutdown(t, e2)
	st := e2.Metrics().Store
	if st.Quarantined != 1 {
		t.Fatalf("store snapshot = %+v, want the torn entry quarantined at recovery", st)
	}
	j, err := e2.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j, 2*time.Minute)
	assertNoWrongVerdict(t, res)
	if res.CacheHit {
		t.Fatal("torn entry served as a hit")
	}
	if res.Status != "witness" {
		t.Fatalf("recovery status = %q, want witness", res.Status)
	}
}

// TestChaosStoreBitRot flips one payload bit after the checksum was
// computed: the live read path must catch it (checksum), quarantine the
// entry, and fall through to a correct re-solve.
func TestChaosStoreBitRot(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	e := New(Config{Workers: 1, Store: openTestStore(t, dir, "")})
	defer shutdown(t, e)
	// FlipAt well past the ~100-byte header lands inside the payload.
	faultinject.Enable(faultinject.PointStoreCorrupt, faultinject.Fault{Flip: true, FlipAt: 300, Times: 1})
	solveAndFlush(t, e)

	// Bypass the memory tier (which still holds the good copy) and read
	// the disk tier directly: the checksum must reject the rotted entry.
	key := fqWitnessReq(6).CacheKey()
	if _, ok := e.cache.store.Get(key); ok {
		t.Fatal("bit-rotted entry served by the disk tier")
	}
	st := e.Metrics().Store
	if st.Quarantined != 1 {
		t.Fatalf("store snapshot = %+v, want the rotted entry quarantined", st)
	}
}

// TestChaosStoreReadOnly runs the whole engine over a store degraded to
// read-only with an empty, trusted entry set: every query is a miss that
// solves correctly, every write-behind fails visibly, and nothing is
// ever served stale.
func TestChaosStoreReadOnly(t *testing.T) {
	defer faultinject.Reset()
	s, err := store.Open(store.Options{Dir: t.TempDir(), Fingerprint: PipelineFingerprint(), ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, Store: s})
	defer shutdown(t, e)

	solveAndFlush(t, e)
	st := e.Metrics().Store
	if !st.ReadOnly {
		t.Fatal("store snapshot does not report read-only")
	}
	if st.WriteErrors == 0 || st.Writes != 0 || st.Entries != 0 {
		t.Fatalf("store snapshot = %+v, want failed writes and no entries on a read-only store", st)
	}
	mustWitness(t, e) // capacity intact: the degraded tier costs misses only
}
