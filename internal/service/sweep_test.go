package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

func sweepReq(mode string, maxT int) *Request {
	return &Request{
		Kind:      KindSweep,
		Source:    qm.FQBuggyQuerySrc,
		Params:    map[string]int64{"N": 3},
		MaxT:      maxT,
		SweepMode: mode,
	}
}

// TestSweepJob is the sweep happy path: a witness sweep on the CS1 buggy
// scheduler finds the starvation witness at its minimal horizon, streams
// one verdict per solved horizon, and a second sweep with a different
// query direction (distinct cache key, same session fingerprint) reuses
// the pooled session.
func TestSweepJob(t *testing.T) {
	e := New(Config{Workers: 2})
	defer shutdown(t, e)

	j1, err := e.Submit(sweepReq("witness", 6))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []SweepVerdict
	for v := range j1.Verdicts() {
		streamed = append(streamed, v)
	}
	r1 := waitDone(t, j1, 2*time.Minute)
	if r1.Kind != KindSweep || r1.Status != "witness" || r1.Trace == nil {
		t.Fatalf("sweep: kind=%s status=%s trace=%v", r1.Kind, r1.Status, r1.Trace)
	}
	if r1.FoundAt == 0 || r1.FoundAt != len(r1.Verdicts) {
		t.Fatalf("FoundAt=%d with %d verdicts", r1.FoundAt, len(r1.Verdicts))
	}
	if !r1.Warm || r1.SessionHit {
		t.Fatalf("first sweep: warm=%v session_hit=%v, want warm miss", r1.Warm, r1.SessionHit)
	}
	if len(streamed) != len(r1.Verdicts) {
		t.Fatalf("streamed %d verdicts, result has %d", len(streamed), len(r1.Verdicts))
	}
	for i, v := range streamed {
		if v != r1.Verdicts[i] {
			t.Fatalf("streamed verdict %d = %+v, result %+v", i, v, r1.Verdicts[i])
		}
	}

	// Same program and solver knobs, different query direction: a cache
	// miss but a session hit.
	j2, err := e.Submit(sweepReq("verify", 6))
	if err != nil {
		t.Fatal(err)
	}
	r2 := waitDone(t, j2, 2*time.Minute)
	if r2.CacheHit {
		t.Fatal("verify sweep must not alias the witness sweep's cache entry")
	}
	if !r2.SessionHit || !r2.Warm {
		t.Fatalf("second sweep: session_hit=%v warm=%v, want warm hit", r2.SessionHit, r2.Warm)
	}

	// Identical resubmit: served from the result cache, verdicts intact.
	j3, err := e.Submit(sweepReq("witness", 6))
	if err != nil {
		t.Fatal(err)
	}
	r3 := waitDone(t, j3, 5*time.Second)
	if !r3.CacheHit || len(r3.Verdicts) != len(r1.Verdicts) {
		t.Fatalf("cache replay: hit=%v verdicts=%d want %d", r3.CacheHit, len(r3.Verdicts), len(r1.Verdicts))
	}
	if j3.Verdicts() != nil {
		t.Fatal("cache-hit sweep job must not carry a verdict stream")
	}

	m := e.Metrics()
	if m.SessionMisses != 1 || m.SessionHits != 1 {
		t.Fatalf("session hits=%d misses=%d, want 1/1", m.SessionHits, m.SessionMisses)
	}
	if m.SessionsLive != 1 {
		t.Fatalf("sessions_live=%d, want 1", m.SessionsLive)
	}
}

// TestConcurrentSweepsShareSession: many clients sweeping the same
// program fingerprint concurrently share ONE warm session — the first
// builds it (single-flight), the rest wait and reuse. Run with -race:
// the session serializes queries internally, the pool must not.
func TestConcurrentSweepsShareSession(t *testing.T) {
	e := New(Config{Workers: 4})
	defer shutdown(t, e)

	const clients = 4
	results := make([]*Result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		// Alternate modes so no two in-flight requests alias in the result
		// cache path by luck of scheduling; all share the session key.
		req := sweepReq("witness", 6)
		if i%2 == 1 {
			req.SweepMode = "verify"
		}
		req.RandSeed = 0 // identical solver knobs across all clients
		wg.Add(1)
		go func(i int, req *Request) {
			defer wg.Done()
			job, err := e.Submit(req)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			res, err := job.Wait(t.Context())
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, req)
	}
	wg.Wait()

	m := e.Metrics()
	if m.SessionsLive != 1 {
		t.Fatalf("sessions_live=%d, want exactly 1 shared session", m.SessionsLive)
	}
	if m.SessionMisses != 1 {
		t.Fatalf("session_misses=%d, want 1 (single-flight build)", m.SessionMisses)
	}
	// Everyone except cache-served repeats touched the pool; at least one
	// must have been a hit on the shared session.
	if m.SessionHits < 1 {
		t.Fatalf("session_hits=%d, want >= 1", m.SessionHits)
	}
	// Same-mode clients must agree verdict-for-verdict.
	for i := 2; i < clients; i++ {
		a, b := results[i-2], results[i]
		if a == nil || b == nil {
			t.Fatal("missing result")
		}
		if a.Status != b.Status || a.FoundAt != b.FoundAt {
			t.Fatalf("clients %d/%d disagree: %s@%d vs %s@%d",
				i-2, i, a.Status, a.FoundAt, b.Status, b.FoundAt)
		}
	}
}

// TestSweepEvictionStorm: a pool squeezed to one entry and a byte budget
// too small for any session evicts constantly while concurrent sweeps of
// distinct fingerprints run. Answers must match an unpooled engine's
// (eviction degrades to cold solves, never changes verdicts), and the
// pool must end within its budgets.
func TestSweepEvictionStorm(t *testing.T) {
	e := New(Config{Workers: 4, SessionEntries: 1, SessionMaxBytes: 1})
	defer shutdown(t, e)
	cold := New(Config{Workers: 2, SessionEntries: -1})
	defer shutdown(t, cold)

	reqs := []*Request{
		sweepReq("witness", 5),
		{Kind: KindSweep, Source: qm.RRQuerySrc, Params: map[string]int64{"N": 2}, MaxT: 4, SweepMode: "witness"},
		{Kind: KindSweep, Source: qm.SPQuerySrc, Params: map[string]int64{"N": 3}, MaxT: 4, SweepMode: "witness"},
		{Kind: KindSweep, Source: qm.FQFixedQuerySrc, Params: map[string]int64{"N": 3}, MaxT: 4, SweepMode: "verify"},
	}
	type outcome struct {
		status  string
		foundAt int
	}
	got := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			// Distinct RandSeed per round: new fingerprints, fresh builds,
			// more eviction pressure (round 0 reuses are cache hits anyway).
			r := *req
			r.Params = req.Params
			r.RandSeed = uint64(round * 100)
			wg.Add(1)
			go func(i int, r *Request) {
				defer wg.Done()
				job, err := e.Submit(r)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				res, err := job.Wait(t.Context())
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
				got[i] = outcome{res.Status, res.FoundAt}
			}(i, &r)
		}
		wg.Wait()
	}

	for i, req := range reqs {
		job, err := cold.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := job.Wait(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if got[i].status != want.Status || got[i].foundAt != want.FoundAt {
			t.Errorf("req %d: storm answered %s@%d, cold %s@%d",
				i, got[i].status, got[i].foundAt, want.Status, want.FoundAt)
		}
	}

	m := e.Metrics()
	if m.SessionBytes > 1 {
		t.Fatalf("pool over byte budget after storm: %d bytes", m.SessionBytes)
	}
	var evictions int64
	for _, n := range m.SessionEvictions {
		evictions += n
	}
	if evictions == 0 {
		t.Fatal("storm produced no evictions; test is vacuous")
	}
}

// TestSessionKeyDiscriminates: every solver-relevant knob must change the
// session fingerprint (sharing across them would answer with the wrong
// encoding or budgets), while query-level knobs — direction, horizon
// within capacity, portfolio, timeout — must NOT (sharing across them is
// the whole point of a warm session).
func TestSessionKeyDiscriminates(t *testing.T) {
	base := func() *Request { return sweepReq("witness", 6) }
	baseKey := base().SessionKey()

	distinct := map[string]func(*Request){
		"source":           func(r *Request) { r.Source += " " },
		"model":            func(r *Request) { r.Model = "count" },
		"params":           func(r *Request) { r.Params = map[string]int64{"N": 4} },
		"width":            func(r *Request) { r.Width = 14 },
		"buffer_cap":       func(r *Request) { r.BufferCap = 9 },
		"out_buffer_cap":   func(r *Request) { r.OutBufferCap = 9 },
		"arrivals":         func(r *Request) { r.ArrivalsPerStep = 2 },
		"num_classes":      func(r *Request) { r.NumClasses = 3 },
		"max_bytes":        func(r *Request) { r.MaxBytes = 64 },
		"list_cap":         func(r *Request) { r.ListCap = 5 },
		"max_conflicts":    func(r *Request) { r.MaxConflicts = 100 },
		"max_propagations": func(r *Request) { r.MaxPropagations = 1000 },
		"max_learnt_bytes": func(r *Request) { r.MaxLearntBytes = 1 << 20 },
		"restart_base":     func(r *Request) { r.RestartBase = 50 },
		"geom_restarts":    func(r *Request) { r.GeomRestarts = true },
		"var_decay":        func(r *Request) { r.VarDecay = 0.9 },
		"init_phase":       func(r *Request) { r.InitPhase = true },
		"rand_seed":        func(r *Request) { r.RandSeed = 7 },
		"rand_freq":        func(r *Request) { r.RandFreq = 0.05 },
		"max_t":            func(r *Request) { r.MaxT = 9 },
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range distinct {
		r := base()
		mutate(r)
		key := r.SessionKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: session key collides with %s", name, prev)
		}
		seen[key] = name
	}

	same := map[string]func(*Request){
		"kind":       func(r *Request) { r.Kind = KindVerify },
		"sweep_mode": func(r *Request) { r.SweepMode = "verify" },
		"t":          func(r *Request) { r.T = 3 },
		"portfolio":  func(r *Request) { r.Portfolio = 4 },
		"timeout":    func(r *Request) { r.TimeoutMS = 9000 },
		"crosscheck": func(r *Request) { r.CrossCheck = true },
	}
	for name, mutate := range same {
		r := base()
		mutate(r)
		if key := r.SessionKey(); key != baseKey {
			t.Errorf("%s: must not change the session key (it is retractable per query)", name)
		}
		// ... but each still discriminates the result cache (timeout is in
		// neither key: only uncacheable Unknown outcomes depend on it).
		if name != "timeout" && r.CacheKey() == base().CacheKey() {
			t.Errorf("%s: must still change the cache key", name)
		}
	}
}

// TestSweepHTTPStream covers POST /v1/sweep end to end: NDJSON verdict
// lines followed by a terminal done line, and the cached replay matching.
func TestSweepHTTPStream(t *testing.T) {
	e := New(Config{Workers: 2})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body, _ := json.Marshal(sweepReq("witness", 6))
	post := func() (verdicts []SweepVerdict, done *JobView) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content-type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var l sweepLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			switch {
			case l.Verdict != nil:
				if done != nil {
					t.Fatal("verdict line after done line")
				}
				verdicts = append(verdicts, *l.Verdict)
			case l.Done != nil:
				done = l.Done
			default:
				t.Fatalf("line %q has neither verdict nor done", line)
			}
		}
		if done == nil {
			t.Fatal("stream ended without a done line")
		}
		return verdicts, done
	}

	v1, d1 := post()
	if d1.State != StateDone || d1.Result == nil || d1.Result.Status != "witness" {
		t.Fatalf("done line: state=%s result=%+v", d1.State, d1.Result)
	}
	if len(v1) == 0 || len(v1) != len(d1.Result.Verdicts) {
		t.Fatalf("streamed %d verdicts, result carries %d", len(v1), len(d1.Result.Verdicts))
	}
	for i := range v1 {
		if v1[i] != d1.Result.Verdicts[i] {
			t.Fatalf("line %d: %+v != %+v", i, v1[i], d1.Result.Verdicts[i])
		}
	}

	// Cached replay keeps the same line protocol.
	v2, d2 := post()
	if !d2.Result.CacheHit {
		t.Fatal("second post should hit the result cache")
	}
	if len(v2) != len(v1) {
		t.Fatalf("cached replay streamed %d verdicts, want %d", len(v2), len(v1))
	}

	// The Prometheus exposition carries the session metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		"buffy_sessions_live 1",
		"buffy_session_hits_total",
		"buffy_session_misses_total 1",
		"buffy_session_evictions_total",
		fmt.Sprintf("buffy_jobs_submitted_total{kind=%q}", KindSweep),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestSweepValidation rejects malformed sweep requests at submit.
func TestSweepValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	for _, req := range []*Request{
		{Kind: KindSweep, Source: "x", MaxT: MaxHorizon + 1},
		{Kind: KindSweep, Source: "x", MaxT: -1},
		{Kind: KindSweep, Source: "x", SweepMode: "sideways"},
	} {
		if _, err := e.Submit(req); err == nil {
			t.Errorf("Submit(%+v) should fail validation", req)
		}
	}
}

// TestSweepSearchSpansCountOwnEffort: a session sweep re-solves one
// solver per horizon, so each horizon's search span must report that
// solve's conflicts, not the solver's lifetime count. The spans then sum
// to the job's search report totals.
func TestSweepSearchSpansCountOwnEffort(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)

	job, err := e.Submit(&Request{
		Kind:      KindSweep,
		Source:    qm.FQFixedQuerySrc,
		Params:    map[string]int64{"N": 3},
		MaxT:      5,
		SweepMode: "verify",
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, job, 2*time.Minute)
	if res.Search == nil {
		t.Fatal("sweep result carries no search report")
	}
	var spans, withConflicts int
	var sum int64
	var walk func([]*telemetry.SpanView)
	walk = func(views []*telemetry.SpanView) {
		for _, sv := range views {
			if sv.Name == "search" {
				c, _ := sv.Attrs["conflicts"].(int64)
				spans++
				sum += c
				if c > 0 {
					withConflicts++
				}
			}
			walk(sv.Spans)
		}
	}
	walk(job.Trace().Snapshot().Spans)
	if withConflicts < 2 {
		t.Fatalf("%d search spans, %d with conflicts: want >= 2 horizons that search", spans, withConflicts)
	}
	if sum != res.Search.Totals.Conflicts {
		t.Errorf("search spans sum to %d conflicts, search report totals %d", sum, res.Search.Totals.Conflicts)
	}
}

// TestWarmSweepReportsOwnEffort: a sweep reports its own work, encoding
// included. On a fresh session each horizon unrolls one more step, so
// the miss's bitblast spans sum to the final horizon's encoding size. The
// witness sweep that reuses the session ends at its first horizon, which
// the verify sweep unrolled already: it opens no encoding span, and its
// one search span is the whole of its effort, which the wire sat_stats
// must match rather than the session's lifetime count.
func TestWarmSweepReportsOwnEffort(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	miss, err := e.Submit(sweepReq("verify", 6))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, miss, 2*time.Minute)
	if res.SessionHit || len(res.Verdicts) < 2 {
		t.Fatalf("session_hit=%v with %d verdicts: want a fresh session deepened over >= 2 horizons", res.SessionHit, len(res.Verdicts))
	}
	tr := miss.Trace()
	if n := spanCount(tr, "bitblast"); n != len(res.Verdicts) {
		t.Errorf("%d bitblast spans for %d deepening horizons", n, len(res.Verdicts))
	}
	if got := spanSum(tr, "bitblast", "clauses"); got != int64(res.NumClauses) {
		t.Errorf("bitblast spans sum to %d clauses, result num_clauses %d", got, res.NumClauses)
	}
	if got := spanSum(tr, "bitblast", "vars"); got != int64(res.NumVars) {
		t.Errorf("bitblast spans sum to %d vars, result num_vars %d", got, res.NumVars)
	}
	if got := spanSum(tr, "compile", "terms"); got <= 0 {
		t.Errorf("compile spans sum to %d terms, want > 0", got)
	}

	hit, err := e.Submit(sweepReq("witness", 6))
	if err != nil {
		t.Fatal(err)
	}
	res = waitDone(t, hit, 2*time.Minute)
	if !res.SessionHit {
		t.Fatal("second sweep did not reuse the pooled session")
	}
	for _, name := range []string{"compile", "bitblast"} {
		if n := spanCount(hit.Trace(), name); n != 0 {
			t.Errorf("session-hit sweep over unrolled horizons has %d %s spans, want 0", n, name)
		}
	}
	if want := spanSum(hit.Trace(), "search", "conflicts"); res.SatStats.Conflicts != want {
		t.Errorf("session-hit sweep sat_stats.conflicts = %d, its search spans sum to %d", res.SatStats.Conflicts, want)
	}
}

// spanCount counts the spans named name anywhere in the trace.
func spanCount(tr *telemetry.Trace, name string) int {
	n := 0
	var walk func([]*telemetry.SpanView)
	walk = func(views []*telemetry.SpanView) {
		for _, sv := range views {
			if sv.Name == name {
				n++
			}
			walk(sv.Spans)
		}
	}
	walk(tr.Snapshot().Spans)
	return n
}
