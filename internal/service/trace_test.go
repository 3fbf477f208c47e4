package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// TestTraceEndpoint is the tentpole acceptance scenario: POST /v1/verify,
// then GET /v1/jobs/{id}/trace returns a span tree whose job span has
// parse, vet, compile, bitblast and search children (no encode wrapper),
// with the job span covering roughly the job's wall clock.
func TestTraceEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	req := map[string]any{"source": qm.FQBuggyQuerySrc, "t": 5, "params": map[string]int64{"N": 3}}

	resp, body := postJSON(t, srv.URL+"/v1/verify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/verify: %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	wallUS := v.FinishedAt.Sub(*v.StartedAt).Microseconds()

	var view telemetry.View
	if r := getJSON(t, srv.URL+"/v1/jobs/"+v.ID+"/trace", &view); r.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", r.StatusCode)
	}
	if view.ID != v.ID || view.NumSpans == 0 {
		t.Fatalf("trace view: %+v", view)
	}

	// Flatten and index by name.
	found := map[string]int64{}
	var walk func(spans []*telemetry.SpanView)
	walk = func(spans []*telemetry.SpanView) {
		for _, s := range spans {
			found[s.Name] += s.DurUS
			walk(s.Spans)
		}
	}
	walk(view.Spans)
	if _, ok := found["encode"]; ok {
		t.Error("trace has an encode span; compile and bitblast report on their own")
	}
	// The root "job" span covers the whole attempt loop; it must account
	// for most of the job's wall clock (scheduling slop allowed).
	if len(view.Spans) != 1 || view.Spans[0].Name != "job" {
		t.Fatalf("trace roots = %+v, want one job span", view.Spans)
	}
	job := view.Spans[0]
	if job.DurUS > wallUS+50_000 || (wallUS > 20_000 && job.DurUS < wallUS/2) {
		t.Errorf("job span %dus vs wall %dus — span tree does not cover the job", job.DurUS, wallUS)
	}
	// Every pipeline layer is a direct child of job, the same layers on
	// every query path; they are disjoint, so they must not exceed it.
	children := map[string]int64{}
	for _, s := range job.Spans {
		children[s.Name] += s.DurUS
	}
	var sum int64
	for _, stage := range []string{"parse", "vet", "compile", "bitblast", "search"} {
		if _, ok := children[stage]; !ok {
			t.Errorf("span %q is not a child of job (children %v)", stage, children)
		}
		sum += children[stage]
	}
	if sum > job.DurUS+10_000 {
		t.Errorf("stage sum %dus exceeds job span %dus", sum, job.DurUS)
	}
}

// TestTraceListedAndRetained: finished traces appear in /v1/traces
// (newest first) and survive there with their span trees fetchable.
func TestTraceListedAndRetained(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/verify", map[string]any{"source": quickProg, "t": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	getJSON(t, srv.URL+"/v1/traces", &list)
	if len(list.Traces) != 1 || list.Traces[0].JobID != v.ID || list.Traces[0].NumSpans == 0 {
		t.Fatalf("trace listing: %+v", list)
	}
	if list.Traces[0].State != string(StateDone) || list.Traces[0].Kind != string(KindVerify) {
		t.Errorf("summary metadata: %+v", list.Traces[0])
	}

	// A cache hit records no trace: the second submit's job 404s.
	_, body2 := postJSON(t, srv.URL+"/v1/verify", map[string]any{"source": quickProg, "t": 2})
	var v2 JobView
	if err := json.Unmarshal(body2, &v2); err != nil {
		t.Fatal(err)
	}
	if r := getJSON(t, srv.URL+"/v1/jobs/"+v2.ID+"/trace", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("cache-hit trace: status %d, want 404", r.StatusCode)
	}
}

// TestProgressEndpoint: polling /v1/jobs/{id}/progress during a hard
// solve returns monotonically nondecreasing conflict counts that end
// above zero.
func TestProgressEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	// A hard query submitted async so the test can poll while it solves. A
	// conflict budget bounds the test's runtime; the poller tolerates the
	// job finishing early.
	req := map[string]any{
		"source": qm.FQBuggyQuerySrc, "t": 7, "params": map[string]int64{"N": 3},
		"max_conflicts": 30000,
	}
	resp, body := postJSON(t, srv.URL+"/v1/verify?async=1", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	type progressResp struct {
		ID       string           `json:"id"`
		State    State            `json:"state"`
		Progress ProgressSnapshot `json:"progress"`
	}
	var snaps []progressResp
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var pr progressResp
		if r := getJSON(t, srv.URL+"/v1/jobs/"+v.ID+"/progress", &pr); r.StatusCode != http.StatusOK {
			t.Fatalf("GET progress: %d", r.StatusCode)
		}
		snaps = append(snaps, pr)
		if pr.State.terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last := snaps[len(snaps)-1]; !last.State.terminal() {
		t.Fatalf("job still %s after deadline", last.State)
	}
	var prev int64 = -1
	for i, s := range snaps {
		if s.Progress.Conflicts < prev {
			t.Fatalf("poll %d: conflicts went backwards (%d -> %d)", i, prev, s.Progress.Conflicts)
		}
		prev = s.Progress.Conflicts
	}
	if prev == 0 {
		t.Error("final progress shows zero conflicts for a hard solve")
	}
}

// ProgressSnapshot alias keeps the test self-describing without importing
// sat directly everywhere.
type ProgressSnapshot struct {
	Conflicts    int64   `json:"conflicts"`
	Propagations int64   `json:"propagations"`
	Solves       int64   `json:"solves"`
	Budget       float64 `json:"budget_fraction"`
}

// TestVersionEndpoint: /v1/version reports the build and Go versions
// plus a sane uptime.
func TestVersionEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	var vi VersionInfo
	getJSON(t, srv.URL+"/v1/version", &vi)
	if vi.Version != Version || !strings.HasPrefix(vi.GoVersion, "go") {
		t.Errorf("version info: %+v", vi)
	}
	if vi.UptimeSeconds < 0 || vi.UptimeSeconds > 3600 {
		t.Errorf("implausible uptime %v", vi.UptimeSeconds)
	}
}

// TestTraceRingEviction: the ring keeps only the configured number of
// traces, newest preserved.
func TestTraceRingEviction(t *testing.T) {
	r := newTraceRing(2)
	for i := 0; i < 5; i++ {
		tr := telemetry.NewTrace(fmt.Sprintf("j%d", i))
		tr.StartSpan(nil, "x").End()
		r.add(TraceSummary{JobID: tr.ID()}, tr)
	}
	s := r.summaries()
	if len(s) != 2 || s[0].JobID != "j4" || s[1].JobID != "j3" {
		t.Fatalf("summaries after eviction: %+v", s)
	}
	if _, ok := r.get("j0"); ok {
		t.Error("evicted trace still fetchable")
	}
	if _, ok := r.get("j4"); !ok {
		t.Error("latest trace not fetchable")
	}
}
