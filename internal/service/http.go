package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"buffy/internal/smt/sat"
)

// StatusClientClosedRequest mirrors nginx's non-standard 499: the client
// abandoned a synchronous analysis and its solve was cancelled.
const StatusClientClosedRequest = 499

// maxRequestBody bounds request JSON (programs are small; 4 MiB is ample).
const maxRequestBody = 4 << 20

// NewHandler returns the buffy-serve HTTP API, one POST route per entry
// of the kind table plus the read-only views:
//
//	POST /v1/verify             run a BMC verify            (body: Request JSON)
//	POST /v1/witness            find a query witness trace
//	POST /v1/synthesize         synthesize a workload
//	POST /v1/bound              network-calculus delay/backlog bounds
//	POST /v1/sweep              minimal-horizon sweep (see below)
//	POST /v1/vet                static analysis only: diagnostics + static verdict
//	GET  /v1/jobs/{id}          poll a job
//	GET  /v1/jobs/{id}/trace    the job's span tree (live or finished)
//	GET  /v1/jobs/{id}/progress live solver-effort counters while it runs
//	GET  /v1/jobs/{id}/explain  solver search introspection (SearchReport)
//	GET  /v1/traces             recent finished traces, newest first
//	GET  /v1/version            build version, Go version, uptime
//	GET  /healthz               readiness (alias of /healthz/ready)
//	GET  /healthz/live          liveness: 200 while the process serves requests
//	GET  /healthz/ready         readiness: 503 once draining or shut down
//	GET  /metrics               Prometheus text (?format=json for a JSON snapshot)
//
// POST /v1/sweep runs a minimal-horizon sweep on a warm pooled solver
// session and streams NDJSON: one {"verdict": ...} line per horizon as it
// is solved, then a final {"done": <job view>} line with the full result.
// With ?async=1 it behaves like the other analysis posts (202 + job ID;
// the verdicts arrive with the polled result instead of streaming).
//
// Analysis posts are synchronous by default: the handler waits for the
// job and the response carries the result. Abandoning the request
// (client disconnect) cancels the in-flight solve. With ?async=1 the
// handler returns 202 and a job ID to poll instead.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	for kind := range kinds {
		mux.HandleFunc("POST /v1/"+string(kind), submitHandler(e, kind))
	}
	mux.HandleFunc("POST /v1/vet", vetHandler(e))
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, viewOf(job))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Live jobs carry their trace; pruned jobs may still be in the
		// retained-trace ring.
		if job, ok := e.Job(id); ok {
			if job.Trace() == nil {
				writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no trace (cache hit or tracing disabled)", id))
				return
			}
			writeJSON(w, http.StatusOK, job.Trace().Snapshot())
			return
		}
		if tr, ok := e.traces.get(id); ok {
			writeJSON(w, http.StatusOK, tr.Snapshot())
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/explain", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := e.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
			return
		}
		// A terminal job's result carries the report with the winner
		// annotation (byte-identical to what the cache tiers serve, and
		// the only one a cache-hit job has); a live job builds it from its
		// progress feed.
		var rep *sat.SearchReport
		if res, _ := job.Result(); res != nil && res.Search != nil {
			rep = res.Search
		} else {
			rep = job.Progress().Report()
		}
		if rep == nil || rep.Totals.Solves == 0 {
			writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no search report (static tier, netcalc, not started, cache hit without one, or tracing disabled)", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":     job.ID,
			"state":  job.State(),
			"search": rep,
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := e.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
			return
		}
		if job.Progress() == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no progress (cache hit or tracing disabled)", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":       job.ID,
			"state":    job.State(),
			"progress": job.Progress().Snapshot(),
		})
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"traces": e.traces.summaries()})
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, VersionInfo{
			Version:       Version,
			GoVersion:     goVersion(),
			UptimeSeconds: time.Since(e.met.start).Seconds(),
		})
	})
	// Liveness vs readiness: liveness answers "is the process able to
	// serve HTTP at all" (restart me if not); readiness answers "should a
	// balancer route new work here" and fails as soon as a drain begins,
	// while in-flight jobs are still finishing. /healthz keeps its
	// pre-split readiness semantics for existing probes.
	ready := func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		state := "ok"
		if !e.Ready() {
			status = http.StatusServiceUnavailable
			state = "draining"
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter()))
		}
		writeJSON(w, status, map[string]any{"status": state, "queue_depth": len(e.queue)})
	}
	mux.HandleFunc("GET /healthz", ready)
	mux.HandleFunc("GET /healthz/ready", ready)
	mux.HandleFunc("GET /healthz/live", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := e.Metrics()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	})
	return mux
}

// decodeRequest reads a request body for kind (the route is
// authoritative) and runs the field checks every route shares, answering
// 400 itself when the body is unusable.
func decodeRequest(w http.ResponseWriter, r *http.Request, kind Kind) (*Request, bool) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	req.Kind = kind
	if err := req.validateFields(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return &req, true
}

// submitHandler serves POST /v1/{kind}: submit the job, then answer with
// its view once terminal, or stream its verdicts for a streaming kind.
func submitHandler(e *Engine, kind Kind) http.HandlerFunc {
	streams := kinds[kind].streams
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeRequest(w, r, kind)
		if !ok {
			return
		}
		job, err := e.Submit(req)
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnmeetable), errors.Is(err, ErrClosed):
			// Shed load with a data-driven hint: queue backlog divided
			// across the pool, priced at recent solve latency.
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter()))
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}

		if async := r.URL.Query().Get("async"); async == "1" || async == "true" {
			w.Header().Set("Location", "/v1/jobs/"+job.ID)
			writeJSON(w, http.StatusAccepted, viewOf(job))
			return
		}
		if streams {
			streamVerdicts(w, r, job)
			return
		}

		// Synchronous: wait for the job; an abandoned request aborts the
		// solve instead of burning a worker.
		select {
		case <-job.Done():
		case <-r.Context().Done():
			job.Cancel()
			writeError(w, StatusClientClosedRequest, fmt.Errorf("request abandoned: %w", r.Context().Err()))
			return
		}
		status := statusOf(e, job)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter()))
		}
		writeJSON(w, status, viewOf(job))
	}
}

// sweepLine is one NDJSON line of a streamed sweep response: exactly one
// of Verdict (a horizon landed) or Done (the job is terminal) is set.
type sweepLine struct {
	Verdict *SweepVerdict `json:"verdict,omitempty"`
	Done    *JobView      `json:"done,omitempty"`
}

// streamVerdicts answers a streaming job as NDJSON: its per-horizon
// verdicts while the worker deepens, then the terminal job view. Cache
// hits replay their verdicts from the cached result so the wire shape is
// identical either way.
func streamVerdicts(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(line sweepLine) {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Cache hits carry no stream; replay the cached verdicts so clients
	// see the same line protocol.
	ch := job.Verdicts()
stream:
	for ch != nil {
		select {
		case v, ok := <-ch:
			if !ok {
				break stream
			}
			writeLine(sweepLine{Verdict: &v})
		case <-job.Done():
			// Canceled while queued (the worker never ran, so the
			// channel never closes): drain whatever is buffered.
			for {
				select {
				case v, ok := <-ch:
					if ok {
						writeLine(sweepLine{Verdict: &v})
						continue
					}
				default:
				}
				break stream
			}
		case <-r.Context().Done():
			job.Cancel()
			return
		}
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		job.Cancel()
		return
	}
	if res, _ := job.Result(); res != nil && res.CacheHit {
		for i := range res.Verdicts {
			writeLine(sweepLine{Verdict: &res.Verdicts[i]})
		}
	}
	view := viewOf(job)
	writeLine(sweepLine{Done: &view})
}

// statusOf maps a terminal job to its HTTP status via the failure
// taxonomy: deadline expiry is the gateway's timeout (504), an exhausted
// transient failure (panic, portfolio disagreement) is the service's
// fault (500), and everything else failing is the client's input (422).
func statusOf(e *Engine, job *Job) int {
	switch job.State() {
	case StateDone:
		return http.StatusOK
	case StateCanceled:
		// A job can also be canceled by Shutdown's forced drain; the client
		// did nothing wrong then and gets 503, not 499.
		if e.Closed() {
			return http.StatusServiceUnavailable
		}
		return StatusClientClosedRequest
	default: // StateFailed
		_, err := job.Result()
		switch class, _ := classify(nil, err); class {
		case failDeadline:
			return http.StatusGatewayTimeout
		case failTransient:
			return http.StatusInternalServerError
		}
		return http.StatusUnprocessableEntity
	}
}

// JobView is the wire representation of a job.
type JobView struct {
	ID          string     `json:"id"`
	Kind        Kind       `json:"kind"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Error       string     `json:"error,omitempty"`
	Result      *Result    `json:"result,omitempty"`
}

func viewOf(job *Job) JobView {
	res, err := job.Result()
	submitted, started, finished := job.Times()
	v := JobView{
		ID:          job.ID,
		Kind:        job.Req.Kind,
		State:       job.State(),
		SubmittedAt: submitted,
		Result:      res,
	}
	if !started.IsZero() {
		v.StartedAt = &started
	}
	if !finished.IsZero() {
		v.FinishedAt = &finished
	}
	if err != nil {
		v.Error = err.Error()
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusWriter captures the response status for the logging middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// WithRequestLogging wraps a handler with structured per-request logs
// (method, path, status, duration) on log. Health and metrics probes are
// skipped — they fire every few seconds and would drown the job logs.
func WithRequestLogging(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		log.Info("http request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "elapsed_ms", time.Since(start).Milliseconds())
	})
}
