package service

import (
	"runtime"
	"sync"
	"time"

	"buffy/internal/telemetry"
)

// Version identifies the service build. It is a variable (not a const) so
// release builds can stamp it via -ldflags "-X buffy/internal/service.Version=...".
var Version = "0.6.0-dev"

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// UptimeSeconds counts since the engine started.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func goVersion() string { return runtime.Version() }

// TraceSummary is one entry of the /v1/traces listing: enough to decide
// which trace to fetch in full, without shipping every span tree.
type TraceSummary struct {
	JobID      string    `json:"job_id"`
	Kind       string    `json:"kind"`
	State      string    `json:"state"`
	StartedAt  time.Time `json:"started_at"`
	DurationMS int64     `json:"duration_ms"`
	NumSpans   int       `json:"num_spans"`
}

// traceRing retains the N most recent finished traces so /v1/traces and
// /v1/jobs/{id}/trace keep working after job retention prunes the Job
// (and so an operator can browse recent history without knowing IDs).
type traceRing struct {
	mu      sync.Mutex
	max     int
	entries []traceEntry // oldest first
}

type traceEntry struct {
	summary TraceSummary
	trace   *telemetry.Trace
}

func newTraceRing(max int) *traceRing {
	return &traceRing{max: max}
}

// add records a finished job's trace, evicting the oldest past capacity.
func (r *traceRing) add(sum TraceSummary, tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	r.mu.Lock()
	r.entries = append(r.entries, traceEntry{sum, tr})
	if len(r.entries) > r.max {
		r.entries = r.entries[len(r.entries)-r.max:]
	}
	r.mu.Unlock()
}

// get returns the retained trace for a job ID.
func (r *traceRing) get(jobID string) (*telemetry.Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.entries) - 1; i >= 0; i-- {
		if r.entries[i].summary.JobID == jobID {
			return r.entries[i].trace, true
		}
	}
	return nil, false
}

// summaries lists retained traces, newest first.
func (r *traceRing) summaries() []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.entries))
	for i := len(r.entries) - 1; i >= 0; i-- {
		out = append(out, r.entries[i].summary)
	}
	return out
}
