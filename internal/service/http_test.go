package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"buffy/internal/qm"
)

const quickProg = `
limiter(buffer in0, buffer out0) {
  monitor int departed;
  local int n;
  n = backlog-p(in0);
  if (n > 1) { n = 1; }
  move-p(in0, out0, n);
  departed = departed + n;
  assert(departed <= t + 1);
}
`

func newTestServer(t *testing.T, cfg Config) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(cfg)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPWitnessCacheFlow is the end-to-end acceptance scenario:
// submitting the CS1 FQ-starvation query twice over HTTP returns the same
// trace, with the second response served from cache, as confirmed by the
// cache-hit counter in /metrics.
func TestHTTPWitnessCacheFlow(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	req := map[string]any{"source": qm.FQBuggyQuerySrc, "t": 6, "params": map[string]int64{"N": 3}}

	resp1, body1 := postJSON(t, srv.URL+"/v1/witness", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp1.StatusCode, body1)
	}
	var v1 JobView
	if err := json.Unmarshal(body1, &v1); err != nil {
		t.Fatal(err)
	}
	if v1.State != StateDone || v1.Result == nil || v1.Result.Status != "witness" || v1.Result.Trace == nil {
		t.Fatalf("first response: %s", body1)
	}
	if v1.Result.CacheHit {
		t.Error("first response must not be a cache hit")
	}

	resp2, body2 := postJSON(t, srv.URL+"/v1/witness", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d: %s", resp2.StatusCode, body2)
	}
	var v2 JobView
	if err := json.Unmarshal(body2, &v2); err != nil {
		t.Fatal(err)
	}
	if !v2.Result.CacheHit {
		t.Error("second response should be served from cache")
	}
	tr1, _ := json.Marshal(v1.Result.Trace)
	tr2, _ := json.Marshal(v2.Result.Trace)
	if string(tr1) != string(tr2) {
		t.Error("cached response returned a different trace")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(prom), "buffy_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit counter:\n%s", prom)
	}
	if !strings.Contains(string(prom), `buffy_jobs_submitted_total{kind="witness"} 2`) {
		t.Errorf("metrics missing submit counter:\n%s", prom)
	}
	if !strings.Contains(string(prom), `buffy_layer_work_total{counter="search.conflicts"}`) ||
		!strings.Contains(string(prom), "buffy_solve_duration_seconds_count 1") {
		t.Errorf("metrics missing solver effort:\n%s", prom)
	}

	jresp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 1 || snap.SolveCount != 1 {
		t.Errorf("snapshot: %+v", snap)
	}
}

func TestHTTPAsyncJobPoll(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/verify?async=1", map[string]any{"source": quickProg, "t": 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d: %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || resp.Header.Get("Location") != "/v1/jobs/"+view.ID {
		t.Fatalf("bad async response: %s (Location %q)", body, resp.Header.Get("Location"))
	}

	deadline := time.Now().Add(time.Minute)
	for {
		jr, err := http.Get(srv.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(jr.Body)
		jr.Body.Close()
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("poll: %v (%s)", err, data)
		}
		if view.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.State != StateDone || view.Result == nil || view.Result.Status != "holds" {
		t.Fatalf("final job view: %+v", view)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/witness", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, srv.URL+"/v1/witness", map[string]any{"source": quickProg, "bogus_field": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, srv.URL+"/v1/witness", map[string]any{"source": ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: %d, want 400", resp.StatusCode)
	}

	// An out-of-range width must be rejected up front (400), never panic a
	// worker: this request used to be a one-shot remote crash.
	resp, _ = postJSON(t, srv.URL+"/v1/witness", map[string]any{"source": quickProg, "width": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("width 1: %d, want 400", resp.StatusCode)
	}

	// A program that fails to parse is the client's fault: 422.
	resp, body := postJSON(t, srv.URL+"/v1/verify", map[string]any{"source": "not a program", "t": 2})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("parse error: %d, want 422 (%s)", resp.StatusCode, body)
	}

	jr, err := http.Get(srv.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", jr.StatusCode)
	}
}

// TestHTTPClientAbandonCancelsSolve pins the tentpole guarantee: a client
// that gives up on a synchronous request aborts its in-flight solve
// instead of burning a worker.
func TestHTTPClientAbandonCancelsSolve(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 1})

	data, _ := json.Marshal(map[string]any{"source": qm.FQBuggyQuerySrc, "t": 10, "params": map[string]int64{"N": 3}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/witness", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Wait until the solve is actually running, then walk away.
		for e.Metrics().WorkersBusy == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the client-side cancellation error")
	}

	deadline := time.Now().Add(10 * time.Second)
	for e.Metrics().JobsCanceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned request did not cancel its job: %+v", e.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The worker is free again shortly after.
	for e.Metrics().WorkersBusy != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still busy after abandonment")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPShutdownCancelReturns503 pins the status of a synchronous
// request whose solve is canceled by Shutdown's forced drain: the client
// never disconnected, so it gets 503 (shutting down), not 499.
func TestHTTPShutdownCancelReturns503(t *testing.T) {
	e := New(Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	type outcome struct {
		status int
		body   []byte
	}
	got := make(chan outcome, 1)
	go func() {
		data, _ := json.Marshal(map[string]any{"source": qm.FQBuggyQuerySrc, "t": 10, "params": map[string]int64{"N": 3}})
		resp, err := http.Post(srv.URL+"/v1/witness", "application/json", bytes.NewReader(data))
		if err != nil {
			got <- outcome{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- outcome{resp.StatusCode, body}
	}()
	for e.Metrics().WorkersBusy == 0 {
		time.Sleep(time.Millisecond)
	}

	// An already-expired drain context forces immediate cancellation of the
	// in-flight solve.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced shutdown: %v", err)
	}
	select {
	case o := <-got:
		if o.status != http.StatusServiceUnavailable {
			t.Errorf("status = %d, want 503 (%s)", o.status, o.body)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("synchronous request did not return after forced shutdown")
	}
}

func TestHTTPHealthz(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d, want 200", resp.StatusCode)
	}

	ctx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPConcurrentLoad drives mixed cached/uncached traffic through the
// full HTTP stack — the service must be race-clean under parallel clients.
func TestHTTPConcurrentLoad(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 4})
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			// Two distinct requests, each submitted 4 times: exercises
			// both solve and cache paths concurrently.
			req := map[string]any{"source": quickProg, "t": 2 + i%2}
			resp, body := postJSONNoFatal(srv.URL+"/v1/verify", req)
			if resp == nil {
				errs <- fmt.Errorf("request failed")
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var view JobView
			if err := json.Unmarshal(body, &view); err != nil {
				errs <- err
				return
			}
			if view.Result == nil || view.Result.Status != "holds" {
				errs <- fmt.Errorf("unexpected result: %s", body)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func postJSONNoFatal(url string, body any) (*http.Response, []byte) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// TestHTTPPortfolioMetrics drives a portfolio request end to end and
// asserts the per-config win counter and race histogram show up in both
// Prometheus and JSON metric expositions (satellite: portfolio telemetry).
func TestHTTPPortfolioMetrics(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	req := map[string]any{
		"source": qm.FQBuggyQuerySrc, "t": 5,
		"params": map[string]int64{"N": 3}, "portfolio": 4,
	}

	resp, body := postJSON(t, srv.URL+"/v1/witness", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || v.Result == nil || v.Result.Status != "witness" {
		t.Fatalf("response: %s", body)
	}
	if v.Result.PortfolioSize != 4 || v.Result.PortfolioWinner == "" {
		t.Errorf("portfolio fields missing from result: %s", body)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	want := fmt.Sprintf("buffy_portfolio_wins_total{config=%q} 1", v.Result.PortfolioWinner)
	if !strings.Contains(string(prom), want) {
		t.Errorf("metrics missing %s:\n%s", want, prom)
	}
	if !strings.Contains(string(prom), "buffy_portfolio_duration_seconds_count 1") {
		t.Errorf("metrics missing portfolio race histogram:\n%s", prom)
	}

	jresp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.PortfolioCount != 1 || snap.PortfolioWins[v.Result.PortfolioWinner] != 1 {
		t.Errorf("snapshot portfolio telemetry: %+v", snap)
	}
}

// TestHTTPStaticAnswerIsNoRace: a portfolio request the static tier
// decides never reaches a solver, so no race ran — the result carries no
// race fields and the portfolio metrics stay at zero.
func TestHTTPStaticAnswerIsNoRace(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	req := map[string]any{
		"source": `limiter(buffer in0, buffer out0) {
  monitor int departed;
  local int n;
  n = backlog-p(in0);
  if (n > 1) { n = 1; }
  move-p(in0, out0, n);
  departed = departed + n;
  assert(departed <= t + 1);
}`,
		"t": 4, "portfolio": 4,
	}
	resp, body := postJSON(t, srv.URL+"/v1/verify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || v.Result == nil || v.Result.Status != "holds" || v.Result.Tier != "static" {
		t.Fatalf("want a static holds answer: %s", body)
	}
	if v.Result.PortfolioSize != 0 || v.Result.PortfolioWinner != "" {
		t.Errorf("static answer reported as a race: %s", body)
	}

	mresp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.PortfolioCount != 0 || len(snap.PortfolioWins) != 0 {
		t.Errorf("static answer counted as a portfolio race: count %d, wins %v",
			snap.PortfolioCount, snap.PortfolioWins)
	}
}
