package sat

import (
	"sync"
	"testing"
	"time"
)

// TestProgressPublishedDuringSolve pins the live-progress contract: while
// SolveLimited runs, a concurrent poller sees monotonically nondecreasing
// conflict counts, and the final snapshot accounts for all search effort.
// Run under -race in CI — this is the satellite fix for the data race a
// service poller reading solver Stats directly would hit.
func TestProgressPublishedDuringSolve(t *testing.T) {
	s := New()
	loadHardRandom3SAT(s, 300, 1278, 0x2545f4914f6cdd1d)
	p := &Progress{}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps []ProgressSnapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snaps = append(snaps, p.Snapshot())
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	got := s.SolveLimited(Limits{MaxConflicts: 3000, Progress: p})
	close(stop)
	wg.Wait()
	if got != Unknown {
		t.Fatalf("status = %v, want Unknown (budget)", got)
	}

	last := int64(-1)
	for i, snap := range snaps {
		if snap.Conflicts < last {
			t.Fatalf("snapshot %d: conflicts went backwards (%d -> %d)", i, last, snap.Conflicts)
		}
		last = snap.Conflicts
	}
	final := p.Snapshot()
	if final.Conflicts != s.Stats().Conflicts {
		t.Errorf("final conflicts %d != solver stats %d", final.Conflicts, s.Stats().Conflicts)
	}
	if final.Solves != 1 || final.Running != 0 {
		t.Errorf("solves=%d running=%d, want 1/0", final.Solves, final.Running)
	}
	if final.BudgetFraction < 0.9 {
		t.Errorf("budget fraction %v after exhausting the conflict budget, want >= 0.9", final.BudgetFraction)
	}
}

// TestProgressSharedAcrossSolves pins delta publication: sequential
// solves attached to one Progress (the fperf pattern) accumulate, never
// reset — the counters are the job's total effort.
func TestProgressSharedAcrossSolves(t *testing.T) {
	p := &Progress{}
	var total int64
	for i := 0; i < 3; i++ {
		s := New()
		loadHardRandom3SAT(s, 200, 852, uint64(0x9e3779b9+i))
		s.SolveLimited(Limits{MaxConflicts: 200, Progress: p})
		total += s.Stats().Conflicts
	}
	snap := p.Snapshot()
	if snap.Conflicts != total {
		t.Errorf("aggregated conflicts %d, want %d (sum over solves)", snap.Conflicts, total)
	}
	if snap.Solves != 3 {
		t.Errorf("solves = %d, want 3", snap.Solves)
	}
}

// TestProgressConcurrentSolvers pins the portfolio pattern: concurrent
// solvers publishing into one Progress race-free, with the final counts
// summing every solver's effort.
func TestProgressConcurrentSolvers(t *testing.T) {
	p := &Progress{}
	const n = 4
	totals := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := New()
			loadHardRandom3SAT(s, 200, 852, uint64(0x1234567+i))
			s.SolveLimited(Limits{MaxConflicts: 300, Progress: p})
			totals[i] = s.Stats().Conflicts
		}(i)
	}
	wg.Wait()
	var want int64
	for _, c := range totals {
		want += c
	}
	snap := p.Snapshot()
	if snap.Conflicts != want {
		t.Errorf("aggregated conflicts %d, want %d", snap.Conflicts, want)
	}
	if snap.Running != 0 {
		t.Errorf("running = %d after all solvers returned", snap.Running)
	}
}

// TestNilProgressIsFree: SolveLimited without a Progress must not panic
// and must not publish anywhere.
func TestNilProgressIsFree(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	if got := s.SolveLimited(Limits{}); got != Unsat {
		t.Fatalf("status = %v, want Unsat", got)
	}
	var p *Progress
	if snap := p.Snapshot(); snap != (ProgressSnapshot{}) {
		t.Errorf("nil Progress snapshot = %+v, want zero", snap)
	}
}
