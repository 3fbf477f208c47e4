package service

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"buffy/internal/qm"
)

// fqWitnessReq is the §6.1 case study (CS1): find the FQ-CoDel starvation
// witness in the buggy fair-queuing scheduler.
func fqWitnessReq(T int) *Request {
	return &Request{
		Kind:   KindWitness,
		Source: qm.FQBuggyQuerySrc,
		T:      T,
		Params: map[string]int64{"N": 3},
	}
}

func waitDone(t *testing.T, job *Job, within time.Duration) *Result {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(within):
		t.Fatalf("job %s not done within %v (state %s)", job.ID, within, job.State())
	}
	res, err := job.Result()
	if err != nil {
		t.Fatalf("job %s: %v", job.ID, err)
	}
	return res
}

func shutdown(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestCacheRoundTrip is the acceptance scenario: the same CS1 witness
// query twice — second answer identical and served from cache.
func TestCacheRoundTrip(t *testing.T) {
	e := New(Config{Workers: 2})
	defer shutdown(t, e)

	j1, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitDone(t, j1, 2*time.Minute)
	if r1.Status != "witness" || r1.Trace == nil {
		t.Fatalf("first run: status=%s trace=%v", r1.Status, r1.Trace)
	}
	if r1.CacheHit {
		t.Error("first run must not be a cache hit")
	}

	j2, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	r2 := waitDone(t, j2, 5*time.Second)
	if !r2.CacheHit {
		t.Error("second run should be served from cache")
	}
	t1, _ := json.Marshal(r1.Trace)
	t2, _ := json.Marshal(r2.Trace)
	if string(t1) != string(t2) {
		t.Errorf("cached trace differs:\n%s\nvs\n%s", t1, t2)
	}

	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.SolveCount != 1 {
		t.Errorf("solve count = %d, want 1 (cache hit must not re-solve)", m.SolveCount)
	}
	if m.LayerWork["search.conflicts"] == 0 || m.LayerWork["search.propagations"] == 0 {
		t.Errorf("cumulative sat stats not recorded: %+v", m)
	}
	if m.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", m.CacheHitRate)
	}
}

// TestCancelAbortsRunningSolve is the acceptance cancellation scenario:
// cancelling a job's context aborts its CDCL search promptly and leaks no
// goroutines.
func TestCancelAbortsRunningSolve(t *testing.T) {
	before := runtime.NumGoroutine()

	e := New(Config{Workers: 1})
	// T=10 takes seconds of search, so a cancel shortly after start lands
	// mid-solve.
	job, err := e.Submit(fqWitnessReq(10))
	if err != nil {
		t.Fatal(err)
	}
	for job.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the search get going

	cancelAt := time.Now()
	job.Cancel()
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("solver did not unwind after cancel")
	}
	unwound := time.Since(cancelAt)
	// The CDCL loop polls the cancel channel every 64 search steps; even
	// under -race this is far below the full multi-second solve.
	if unwound > 3*time.Second {
		t.Errorf("solver took %v to unwind after cancel", unwound)
	}
	if st := job.State(); st != StateCanceled {
		t.Errorf("state = %s, want canceled", st)
	}
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if m := e.Metrics(); m.JobsCanceled != 1 {
		t.Errorf("canceled counter = %d, want 1", m.JobsCanceled)
	}

	shutdown(t, e)
	// All workers exited; goroutine count returns to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)

	running, err := e.Submit(fqWitnessReq(10))
	if err != nil {
		t.Fatal(err)
	}
	for running.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := e.Submit(fqWitnessReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateQueued {
		t.Fatalf("state = %s, want queued", st)
	}
	queued.Cancel()
	select {
	case <-queued.Done():
	case <-time.After(time.Second):
		t.Fatal("queued job not finished by cancel")
	}
	if st := queued.State(); st != StateCanceled {
		t.Errorf("state = %s, want canceled", st)
	}
	running.Cancel() // don't make shutdown wait out the full solve
}

func TestQueueFull(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, e)

	first, err := e.Submit(fqWitnessReq(10))
	if err != nil {
		t.Fatal(err)
	}
	for first.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	second, err := e.Submit(fqWitnessReq(8))
	if err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, err := e.Submit(fqWitnessReq(9)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	m := e.Metrics()
	if m.JobsRejected != 1 {
		t.Errorf("rejected counter = %d, want 1", m.JobsRejected)
	}
	// A shed submission must not count as submitted, or submitted would
	// never reconcile with completed+failed+canceled.
	if got := m.JobsSubmitted[string(KindWitness)]; got != 2 {
		t.Errorf("submitted counter = %d, want 2 (rejection must not count)", got)
	}
	first.Cancel()
	second.Cancel()
	if j, ok := e.Job(first.ID); !ok || j != first {
		t.Error("job lookup failed")
	}
}

func TestValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	cases := []*Request{
		{Kind: "frobnicate", Source: "x"},
		{Kind: KindVerify, Source: ""},
		{Kind: KindVerify, Source: "x", T: MaxHorizon + 1},
		{Kind: KindVerify, Source: "x", TimeoutMS: -1},
		// Widths outside [2, 62] would panic in bitblast.New; the
		// validator must stop them at the door.
		{Kind: KindVerify, Source: "x", Width: 1},
		{Kind: KindVerify, Source: "x", Width: -4},
		{Kind: KindVerify, Source: "x", Width: 63},
		{Kind: KindVerify, Source: "x", MaxConflicts: -1},
		{Kind: KindVerify, Source: "x", BufferCap: -1},
		{Kind: KindVerify, Source: "x", ListCap: -1},
	}
	for i, req := range cases {
		if _, err := e.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
	// The unknown-kind error lists every kind the table knows.
	_, err := e.Submit(&Request{Kind: "frobnicate", Source: "x"})
	for kind := range kinds {
		if err == nil || !strings.Contains(err.Error(), string(kind)) {
			t.Errorf("unknown-kind error %v does not name %q", err, kind)
		}
	}
}

func TestParseErrorFailsJob(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	job, err := e.Submit(&Request{Kind: KindVerify, Source: "not a program", T: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	if st := job.State(); st != StateFailed {
		t.Errorf("state = %s, want failed", st)
	}
	if _, err := job.Result(); err == nil {
		t.Error("expected a parse error")
	}
	if m := e.Metrics(); m.JobsFailed != 1 {
		t.Errorf("failed counter = %d, want 1", m.JobsFailed)
	}
}

func TestDeadlineAbortsSolve(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	req := fqWitnessReq(10)
	req.TimeoutMS = 100
	job, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case <-job.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("deadline did not abort the solve")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline abort took %v", elapsed)
	}
	if st := job.State(); st != StateFailed {
		t.Errorf("state = %s, want failed", st)
	}
	if _, err := job.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestInconclusiveNotCached pins that Unknown results (budget exhausted)
// never enter the cache: a retry with a bigger budget must re-solve.
func TestInconclusiveNotCached(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	req := fqWitnessReq(6)
	req.MaxConflicts = 1
	j1, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitDone(t, j1, time.Minute)
	if r1.Status != "unknown" {
		t.Fatalf("status = %s, want unknown", r1.Status)
	}
	j2, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	r2 := waitDone(t, j2, time.Minute)
	if r2.CacheHit {
		t.Error("unknown result must not be served from cache")
	}
	if m := e.Metrics(); m.CacheHits != 0 {
		t.Errorf("cache hits = %d, want 0", m.CacheHits)
	}
}

// TestPanicFailsJobNotService pins the worker-pool panic shield: a panic
// escaping the analysis stack fails that one job instead of crashing the
// process. The request bypasses Submit's validation to simulate a panic
// source Validate does not know about (here: an unsupported bit width).
func TestPanicFailsJobNotService(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	req := fqWitnessReq(2)
	req.Width = 1 // bitblast.New panics on this
	e.mu.Lock()
	job := e.newJobLocked(req)
	e.mu.Unlock()
	e.runJob(job) // must not propagate the panic
	if st := job.State(); st != StateFailed {
		t.Errorf("state = %s, want failed", st)
	}
	if _, err := job.Result(); err == nil {
		t.Error("expected a panic-derived error")
	}
	if m := e.Metrics(); m.JobsFailed != 1 {
		t.Errorf("failed counter = %d, want 1", m.JobsFailed)
	}
}

// TestSynthInconclusiveNotCached pins that a budget-exhausted synthesis
// reports Unknown — not a definite (and cacheable) "no-workload".
func TestSynthInconclusiveNotCached(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	req := fqWitnessReq(6)
	req.Kind = KindSynthesize
	req.MaxConflicts = 1
	j1, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitDone(t, j1, time.Minute)
	if r1.Status != "unknown" {
		t.Fatalf("status = %s, want unknown", r1.Status)
	}
	if r1.WorkloadFound {
		t.Error("inconclusive synthesis must not claim a workload")
	}
	j2, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := waitDone(t, j2, time.Minute); r2.CacheHit {
		t.Error("inconclusive synthesis must not be served from cache")
	}
}

func TestSynthesizeThroughEngine(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	job, err := e.Submit(&Request{
		Kind: KindSynthesize,
		T:    2,
		Source: `p(buffer a, buffer b) {
			move-p(a, b, 1);
			if (t == T - 1) { assert(backlog-p(b) == T); }
		}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, job, time.Minute)
	if !res.WorkloadFound || res.Workload == "" {
		t.Errorf("synthesis failed: %+v", res)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	e := New(Config{Workers: 2})
	job, err := e.Submit(fqWitnessReq(4))
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, e)
	// The queued/running job completed during drain.
	select {
	case <-job.Done():
	default:
		t.Error("drain returned with job unfinished")
	}
	if _, err := e.Submit(fqWitnessReq(4)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base := fqWitnessReq(6)
	same := fqWitnessReq(6)
	if base.CacheKey() != same.CacheKey() {
		t.Error("identical requests must share a key")
	}
	vary := []*Request{
		fqWitnessReq(7),
		{Kind: KindVerify, Source: base.Source, T: 6, Params: base.Params},
		{Kind: KindWitness, Source: base.Source + " ", T: 6, Params: base.Params},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: map[string]int64{"N": 4}},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, Model: "count"},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, Width: 14},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, MaxConflicts: 10},
		// Search heuristics and portfolio size change which result object
		// (trace, effort counters, winner) comes back, so they must never
		// alias to one cached result (satellite: cache-key correctness).
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, Portfolio: 4},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, RestartBase: 50},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, GeomRestarts: true},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, VarDecay: 0.9},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, InitPhase: true},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, RandSeed: 7},
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, RandSeed: 7, RandFreq: 0.05},
		// A cross-checked bound carries the differential report in its
		// result, so it must not alias with the plain bound's cache entry.
		{Kind: KindWitness, Source: base.Source, T: 6, Params: base.Params, CrossCheck: true},
	}
	for i, req := range vary {
		if req.CacheKey() == base.CacheKey() {
			t.Errorf("case %d: differing request shares the cache key", i)
		}
	}
}
