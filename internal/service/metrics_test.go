package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

// TestMetricsLabelSets drives a representative job mix through the engine
// — verify (plus a cache hit), witness, synthesize, a budget-exhausted
// retry that degrades, and a panic-failed job — then asserts that every
// documented metric name and label set appears on /metrics. This is the
// contract a scrape config and alert rules are written against; a rename
// or dropped label must fail here, not in a dashboard.
func TestMetricsLabelSets(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 2, MaxRetries: 1, RetryBackoff: time.Millisecond})

	// verify ×2 (second is a cache hit) — quick limiter program.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/verify", map[string]any{"source": quickProg, "t": 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	// witness — CS1 starvation query.
	if resp, body := postJSON(t, srv.URL+"/v1/witness", map[string]any{
		"source": fqWitnessReq(4).Source, "t": 4, "params": map[string]int64{"N": 3},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("witness: %d: %s", resp.StatusCode, body)
	}
	// synthesize — tiny workload-synthesis program.
	if resp, body := postJSON(t, srv.URL+"/v1/synthesize", map[string]any{
		"source": `p(buffer a, buffer b) {
			move-p(a, b, 1);
			if (t == T - 1) { assert(backlog-p(b) == T); }
		}`, "t": 2,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d: %s", resp.StatusCode, body)
	}
	// budget-exhausted retry: 1-conflict budget forces StopConflicts, the
	// engine escalates (degraded="budget-escalated") and retries.
	budgetReq := fqWitnessReq(5)
	budgetReq.MaxConflicts = 1
	job, err := e.Submit(budgetReq)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 2*time.Minute)
	// panic-failed job: unsupported width bypasses Submit validation, the
	// shielded worker retries degraded, then fails with reason "panic".
	panicReq := fqWitnessReq(2)
	panicReq.Width = 1
	e.mu.Lock()
	pj := e.newJobLocked(panicReq)
	e.mu.Unlock()
	e.runJob(pj)
	if st := pj.State(); st != StateFailed {
		t.Fatalf("panic job state = %s, want failed", st)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	prom := string(raw)

	for _, want := range []string{
		// Submission/outcome counters, by kind and in aggregate.
		`buffy_jobs_submitted_total{kind="verify"}`,
		`buffy_jobs_submitted_total{kind="witness"}`,
		`buffy_jobs_submitted_total{kind="synthesize"}`,
		"buffy_jobs_completed_total",
		"buffy_jobs_failed_total",
		`buffy_jobs_failed_reason_total{reason="panic"}`,
		"buffy_jobs_canceled_total",
		"buffy_jobs_rejected_total",
		"buffy_admission_rejected_total",
		// Failure-taxonomy labels from the retry ladder.
		`buffy_job_retries_total{reason="budget-conflicts"}`,
		`buffy_job_retries_total{reason="panic"}`,
		`buffy_budget_exhausted_total{resource="conflicts"}`,
		"buffy_jobs_degraded_total",
		// Pool and cache gauges.
		"buffy_queue_depth",
		"buffy_workers",
		"buffy_workers_busy",
		"buffy_cache_hits_total",
		"buffy_cache_misses_total",
		"buffy_cache_entries",
		"buffy_cache_hit_rate",
		// Solver-effort counters.
		`buffy_layer_work_total{counter="search.conflicts"}`,
		`buffy_layer_work_total{counter="search.decisions"}`,
		`buffy_layer_work_total{counter="search.propagations"}`,
		`buffy_layer_work_total{counter="search.restarts"}`,
		// Solve latency histogram.
		`buffy_solve_duration_seconds_bucket{le="+Inf"}`,
		"buffy_solve_duration_seconds_sum",
		"buffy_solve_duration_seconds_count",
		// Per-stage histograms derived from traces: every pipeline stage
		// must have been observed by this mix.
		`buffy_stage_duration_seconds_bucket{stage="parse",le="+Inf"}`,
		`buffy_stage_duration_seconds_bucket{stage="compile",le="+Inf"}`,
		`buffy_stage_duration_seconds_bucket{stage="bitblast",le="+Inf"}`,
		`buffy_stage_duration_seconds_bucket{stage="search",le="+Inf"}`,
		`buffy_stage_duration_seconds_sum{stage="search"}`,
		`buffy_stage_duration_seconds_count{stage="search"}`,
		// The pre-solve static tier traces as its own stage.
		`buffy_stage_duration_seconds_bucket{stage="vet",le="+Inf"}`,
		`buffy_stage_duration_seconds_bucket{stage="job",le="0.01"}`,
		// Build metadata.
		`buffy_build_info{version="` + Version + `"`,
		"buffy_uptime_seconds",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	// Every kind of the table is exposed, zero or not, in both formats.
	m := e.Metrics()
	for kind := range kinds {
		if want := `buffy_jobs_submitted_total{kind="` + string(kind) + `"}`; !strings.Contains(prom, want) {
			t.Errorf("metrics missing %s", want)
		}
		if _, ok := m.JobsSubmitted[string(kind)]; !ok {
			t.Errorf("JSON jobs_submitted has no %q key", kind)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", prom)
	}

	// Value-level checks via the JSON snapshot: the mix must have produced
	// the counts the labels promise.
	if m.CacheHits < 1 {
		t.Errorf("cache hits = %d, want >= 1", m.CacheHits)
	}
	if m.JobsDegraded < 2 { // budget-escalated + budget-reduced (panic retry)
		t.Errorf("degraded jobs = %d, want >= 2", m.JobsDegraded)
	}
	if m.JobsFailedBy["panic"] != 1 {
		t.Errorf("failed[panic] = %d, want 1", m.JobsFailedBy["panic"])
	}
	// Five jobs solved (the cache hit does not trace): verify, witness,
	// synthesize, budget retry, panic job — each contributes one "job"
	// stage observation.
	if m.StageCount["job"] < 5 {
		t.Errorf("stage job count = %d, want >= 5 (have %v)", m.StageCount["job"], m.StageCount)
	}
	// The quick verify job is decided by the static tier (its assert is
	// provable by interval analysis) and never reaches the CDCL search;
	// the panic job dies before search. That leaves witness, synthesize
	// and the budget retry as search-stage contributors.
	if m.StageCount["search"] < 3 {
		t.Errorf("stage search count = %d, want >= 3", m.StageCount["search"])
	}
	if m.StageCount["vet"] < 1 {
		t.Errorf("stage vet count = %d, want >= 1", m.StageCount["vet"])
	}
	// Compile and bitblast report as stages of their own on every query
	// path; no span wraps them into an encode stage.
	if n, ok := m.StageCount["encode"]; ok || strings.Contains(prom, `stage="encode"`) {
		t.Errorf("stage encode observed %d times; no span is named encode", n)
	}
	// Histogram invariant: +Inf bucket (the count) dominates every bound.
	for stage, buckets := range m.StageBuckets {
		for bound, n := range buckets {
			if n > m.StageCount[stage] {
				t.Errorf("stage %s bucket %s = %d exceeds count %d", stage, bound, n, m.StageCount[stage])
			}
		}
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", m.UptimeSeconds)
	}
}

// TestBackendJobsReportCNF: a workload synthesis and a cross-checked
// bound each blast their own solver, and report that CNF on bitblast
// spans the way a verify does, so /metrics' layer work counts it too.
func TestBackendJobsReportCNF(t *testing.T) {
	synth := &Request{Kind: KindSynthesize, Source: qm.RRQuerySrc, T: 4, Params: map[string]int64{"N": 2}}
	bound := &Request{
		Kind: KindBound, Source: qm.TBRLSrc, T: 6, Model: "count",
		Params:          map[string]int64{"RATE": 1, "BURST": 3, "C": 2},
		ArrivalsPerStep: 2, BufferCap: 16, CrossCheck: true,
	}
	for _, req := range []*Request{synth, bound} {
		t.Run(string(req.Kind), func(t *testing.T) {
			e := New(Config{Workers: 1, CacheEntries: -1})
			defer shutdown(t, e)
			job, err := e.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, job, 2*time.Minute)
			clauses := spanSum(job.Trace(), "bitblast", "clauses")
			if n := spanCount(job.Trace(), "bitblast"); n == 0 || clauses <= 0 {
				t.Fatalf("%d bitblast spans with %d clauses, want at least one with clauses > 0", n, clauses)
			}
			if got := e.Metrics().LayerWork["bitblast.clauses"]; got != clauses {
				t.Errorf("layer work bitblast.clauses = %d, bitblast spans sum to %d", got, clauses)
			}
		})
	}
}

// spanSum sums one int64 attribute over every span of the trace with the
// given name, walking the tree as a trace reader would.
func spanSum(tr *telemetry.Trace, name, attr string) int64 {
	var sum int64
	var walk func([]*telemetry.SpanView)
	walk = func(views []*telemetry.SpanView) {
		for _, sv := range views {
			if sv.Name == name {
				n, _ := sv.Attrs[attr].(int64)
				sum += n
			}
			walk(sv.Spans)
		}
	}
	walk(tr.Snapshot().Spans)
	return sum
}

// TestLayerWorkFoldsTraces: /metrics' layer work is the fold of the
// finished jobs' traces, so search.conflicts equals the conflicts their
// search spans record. Each case is a job shape whose effort a per-result
// counter got wrong: warm sweeps on one pooled session (each job's
// result read the session's lifetime count), a portfolio race (the
// losers' searches carry no result of their own), and a workload
// synthesis (its result carries no solver stats at all).
func TestLayerWorkFoldsTraces(t *testing.T) {
	synth := fqWitnessReq(4)
	synth.Kind = KindSynthesize
	race := fqWitnessReq(6)
	race.Portfolio = 4
	for _, tc := range []struct {
		name string
		reqs []*Request
	}{
		{"pooled-sweeps", []*Request{sweepReq("verify", 6), sweepReq("verify", 6), sweepReq("verify", 6)}},
		{"portfolio", []*Request{race}},
		{"synthesize", []*Request{synth}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The cache is off, so repeated sweeps re-solve on the pooled
			// session instead of replaying the first answer.
			e := New(Config{Workers: 1, CacheEntries: -1})
			defer shutdown(t, e)
			var want int64
			for _, req := range tc.reqs {
				job, err := e.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, job, 2*time.Minute)
				want += spanSum(job.Trace(), "search", "conflicts")
			}
			if want == 0 {
				t.Fatal("the jobs' search spans record no conflicts")
			}
			if got := e.Metrics().LayerWork["search.conflicts"]; got != want {
				t.Errorf("layer work search.conflicts = %d, search spans sum to %d", got, want)
			}
		})
	}
}
