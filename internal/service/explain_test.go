package service

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"buffy/internal/smt/sat"
)

// explainBody is the explain endpoint's response shape.
type explainBody struct {
	ID     string            `json:"id"`
	State  string            `json:"state"`
	Search *sat.SearchReport `json:"search"`
}

func getExplain(t *testing.T, e *Engine, id string) (int, explainBody) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + id + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body explainBody
	if resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, body
}

// TestExplainEndpointSolverJob is the acceptance scenario: a solver-tier
// witness job (CS1 at T=8) must explain with a non-empty timeline — at
// least two samples — restart marks, and distributions; and the report
// attached to the Result must match what the endpoint serves.
func TestExplainEndpointSolverJob(t *testing.T) {
	e := New(Config{Workers: 2})
	defer shutdown(t, e)

	job, err := e.Submit(fqWitnessReq(8))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, job, 2*time.Minute)
	if res.Status != "witness" {
		t.Fatalf("status = %s, want witness", res.Status)
	}
	if res.Search == nil {
		t.Fatal("solver-tier result carries no search report")
	}

	code, body := getExplain(t, e, job.ID)
	if code != 200 {
		t.Fatalf("explain returned %d", code)
	}
	rep := body.Search
	if rep == nil {
		t.Fatal("explain body has no search report")
	}
	if len(rep.Samples) < 2 {
		t.Fatalf("timeline has %d samples, want >= 2", len(rep.Samples))
	}
	restarts := 0
	for _, ev := range rep.Events {
		if ev.Kind == "restart" {
			restarts++
		}
	}
	if restarts == 0 {
		t.Error("no restart marks in the report (CS1 at T=8 restarts many times)")
	}
	if rep.Totals.Solves < 1 || rep.Totals.Conflicts == 0 {
		t.Errorf("totals = %+v, want at least one solve with conflicts", rep.Totals)
	}
	if rep.Depth.Count == 0 || rep.LBD.Count == 0 {
		t.Errorf("distributions empty: depth %d, lbd %d", rep.Depth.Count, rep.LBD.Count)
	}
	// The search clock starts at the first solve_start and stops at the
	// last solve_end: queueing, parsing and compiling are not billed to
	// it. This witness job runs a single solve.
	if first := rep.Events[0]; first.Kind != "solve_start" || first.AtMS != 0 {
		t.Errorf("first event = %+v, want solve_start at 0ms", first)
	}
	if last := rep.Events[len(rep.Events)-1]; rep.Totals.Solves != 1 || last.Kind != "solve_end" || rep.DurationMS != last.AtMS {
		t.Errorf("duration %vms over %d solves, last event %+v: want one solve lasting until its solve_end mark",
			rep.DurationMS, rep.Totals.Solves, last)
	}
	// The endpoint serves the same report the result carries.
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(res.Search)
	if string(a) != string(b) {
		t.Error("explain endpoint and result search report differ")
	}
}

// TestExplainStaticTierJob404: a query the static analyzer decides runs
// no solver, so explain must 404 rather than serve an all-zero report.
func TestExplainStaticTierJob404(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)

	job, err := e.Submit(&Request{
		Kind: KindVerify,
		// The limiter's per-step invariant is interval-provable (same
		// program the CI smoke uses for its static-tier check).
		Source: "limiter(buffer in0, buffer out0) { monitor int departed; local int n; n = backlog-p(in0); if (n > 1) { n = 1; } move-p(in0, out0, n); departed = departed + n; assert(departed <= t + 1); }",
		T:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, job, time.Minute)
	if res.Tier != "static" {
		t.Fatalf("tier = %q, want static", res.Tier)
	}
	if res.Search != nil {
		t.Error("static-tier result carries a search report")
	}
	if code, _ := getExplain(t, e, job.ID); code != 404 {
		t.Errorf("explain on a static-tier job returned %d, want 404", code)
	}
}

// TestExplainCacheHit: a cache-hit job has no recorder of its own but
// must still explain — the report rides the cached result.
func TestExplainCacheHit(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)

	j1, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitDone(t, j1, 2*time.Minute)
	j2, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	r2 := waitDone(t, j2, 5*time.Second)
	if !r2.CacheHit {
		t.Fatal("second submit should hit the cache")
	}
	code, body := getExplain(t, e, j2.ID)
	if code != 200 || body.Search == nil {
		t.Fatalf("cache-hit explain: code %d, search %v", code, body.Search)
	}
	a, _ := json.Marshal(r1.Search)
	b, _ := json.Marshal(body.Search)
	if string(a) != string(b) {
		t.Error("cache-hit explain differs from the original solve's report")
	}
}

// TestTraceSpanTruncationSurfaced: an undersized -trace-spans must be
// visible — dropped_spans in the trace view and the
// buffy_trace_spans_dropped_total counter on /metrics.
func TestTraceSpanTruncationSurfaced(t *testing.T) {
	e := New(Config{Workers: 1, TraceSpans: 2})
	defer shutdown(t, e)

	job, err := e.Submit(fqWitnessReq(6))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 2*time.Minute)

	snap := job.Trace().Snapshot()
	if snap.Dropped == 0 {
		t.Fatal("a 2-span trace of a solver job dropped nothing")
	}
	m := e.Metrics()
	if m.TraceSpansDropped != int64(snap.Dropped) {
		t.Errorf("metric trace_spans_dropped = %d, trace dropped %d", m.TraceSpansDropped, snap.Dropped)
	}
	// The JSON wire shape carries it too (the trace endpoint serves
	// this exact struct).
	data, _ := json.Marshal(snap)
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["dropped_spans"]; !ok {
		t.Errorf("trace view JSON missing dropped_spans: %s", data)
	}
}
