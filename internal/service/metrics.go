package service

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffy/internal/store"
	"buffy/internal/telemetry"
)

// StoreSnapshot is the durable disk tier's point-in-time counters plus
// the engine-side count of write-behinds dropped before reaching it.
type StoreSnapshot struct {
	store.Stats
	Dropped int64 `json:"dropped"`
}

// latencyBuckets are the cumulative-histogram upper bounds (seconds) for
// solve latency, chosen to straddle the sub-second interactive regime and
// the multi-second heavy-solve regime.
var latencyBuckets = [...]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// histogram is a cumulative latency histogram over latencyBuckets. The
// zero value is empty and ready; callers hold the lock that guards it.
type histogram struct {
	count    int64
	sumNanos int64
	buckets  [len(latencyBuckets)]int64 // cumulative counts per bound
}

func (h *histogram) observe(d time.Duration) {
	h.count++
	h.sumNanos += d.Nanoseconds()
	secs := d.Seconds()
	for i, bound := range latencyBuckets {
		if secs <= bound {
			h.buckets[i]++
		}
	}
}

// snapshot returns the count, the sum in seconds, and the buckets keyed
// "le_<bound>" as Snapshot carries them.
func (h *histogram) snapshot() (int64, float64, map[string]int64) {
	buckets := make(map[string]int64, len(latencyBuckets))
	for i, bound := range latencyBuckets {
		buckets[fmt.Sprintf("le_%g", bound)] = h.buckets[i]
	}
	return h.count, float64(h.sumNanos) / 1e9, buckets
}

// metrics aggregates engine-wide counters. All fields are updated with
// atomics except the latency histogram, which takes a short mutex.
type metrics struct {
	// submitted has one counter per entry of the kind table; the map
	// itself is never written after newMetrics.
	submitted map[Kind]*atomic.Int64

	completed atomic.Int64 // jobs that produced a conclusive or unknown result
	failed    atomic.Int64 // jobs that errored (parse/type/compile errors, deadline)
	canceled  atomic.Int64 // jobs aborted by explicit cancel or client abandonment
	rejected  atomic.Int64 // submissions shed (queue full or unmeetable deadline)

	admissionRejected atomic.Int64 // subset of rejected: deadline-aware admission
	degradedJobs      atomic.Int64 // retries that stepped down the degradation ladder

	// Labeled counters: failure reasons, retry reasons, exhausted budget
	// resources, session evictions, and the layers' work folded from
	// finished traces. One mutex guards all five maps; they are touched
	// once per job outcome or eviction, not per solver step.
	labMu       sync.Mutex
	failedBy    map[string]int64 // reason  → jobs failed (deadline, input, panic, ...)
	retriesBy   map[string]int64 // reason  → retries attempted
	budgetBy    map[string]int64 // resource → solves stopped by that budget
	evictionsBy map[string]int64 // reason  → pooled sessions evicted
	work        map[string]int64 // layer.counter → summed over job traces

	// Static-tier telemetry: /v1/vet traffic and how many of those
	// programs the analyzer rejected, plus solver jobs the pre-solve
	// static tier answered without any search.
	vetRequests    atomic.Int64
	vetRejected    atomic.Int64
	staticAnswered atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Spans lost to per-trace caps across all finished jobs: nonzero
	// means -trace-spans is undersized for the workload and trace trees
	// are silently incomplete.
	traceSpansDropped atomic.Int64

	// Warm-session pool telemetry: sweep jobs served by an already-built
	// session vs. builds. Evictions count by reason in evictionsBy
	// ("entries": LRU slot pressure, "memory": byte-budget pressure,
	// learnt-DB growth included).
	sessionHits   atomic.Int64
	sessionMisses atomic.Int64

	workersBusy atomic.Int64

	latMu sync.Mutex
	solve histogram

	// Portfolio telemetry: which config won each race, and the race's
	// end-to-end wall clock (same bounds as the solve histogram).
	portMu    sync.Mutex
	portWins  map[string]int64
	portfolio histogram

	// Per-stage histograms derived from finished traces: stage name
	// (parse, vet, compile, bitblast, search, ...) → latency histogram
	// over the solve buckets.
	stageMu sync.Mutex
	stages  map[string]*histogram

	start time.Time
}

func newMetrics() *metrics {
	m := &metrics{
		submitted:   make(map[Kind]*atomic.Int64, len(kinds)),
		evictionsBy: make(map[string]int64),
		portWins:    make(map[string]int64),
		failedBy:    make(map[string]int64),
		retriesBy:   make(map[string]int64),
		budgetBy:    make(map[string]int64),
		work:        make(map[string]int64),
		stages:      make(map[string]*histogram),
		start:       time.Now(),
	}
	for k := range kinds {
		m.submitted[k] = new(atomic.Int64)
	}
	return m
}

// recordStages folds one finished trace's per-stage durations (the sum of
// that trace's ended spans by name) into the stage histograms. Internal
// high-cardinality span names (per-restart, per-check) are aggregated by
// name just like the pipeline stages, so they cost one label value each.
func (m *metrics) recordStages(stages map[string]time.Duration) {
	if len(stages) == 0 {
		return
	}
	m.stageMu.Lock()
	for name, d := range stages {
		h := m.stages[name]
		if h == nil {
			h = new(histogram)
			m.stages[name] = h
		}
		h.observe(d)
	}
	m.stageMu.Unlock()
}

// count adds one event under its label to a labeled map (failedBy,
// retriesBy, budgetBy, evictionsBy).
func (m *metrics) count(by map[string]int64, label string) {
	m.labMu.Lock()
	by[label]++
	m.labMu.Unlock()
}

// recordFailed counts one failed job under its taxonomy reason.
func (m *metrics) recordFailed(reason string) {
	m.failed.Add(1)
	m.count(m.failedBy, reason)
}

// recordWork folds one finished job's trace work (Trace.Work) into the
// engine-wide layer counters.
func (m *metrics) recordWork(work map[string]int64) {
	m.labMu.Lock()
	for k, n := range work {
		m.work[k] += n
	}
	m.labMu.Unlock()
}

func (m *metrics) recordSubmit(kind Kind) { m.submitted[kind].Add(1) }

func (m *metrics) recordSolve(d time.Duration) {
	m.latMu.Lock()
	m.solve.observe(d)
	m.latMu.Unlock()
}

// recordPortfolio tallies a finished portfolio race: the winning config
// ("" when no config concluded) and the race's wall clock.
func (m *metrics) recordPortfolio(winner string, d time.Duration) {
	if winner == "" {
		winner = "none"
	}
	m.portMu.Lock()
	m.portWins[winner]++
	m.portfolio.observe(d)
	m.portMu.Unlock()
}

// Snapshot is a point-in-time copy of all service metrics, JSON-friendly.
type Snapshot struct {
	JobsSubmitted map[string]int64 `json:"jobs_submitted"`
	JobsCompleted int64            `json:"jobs_completed"`
	JobsFailed    int64            `json:"jobs_failed"`
	JobsCanceled  int64            `json:"jobs_canceled"`
	JobsRejected  int64            `json:"jobs_rejected"`

	JobsFailedBy      map[string]int64 `json:"jobs_failed_by_reason,omitempty"`
	JobRetries        map[string]int64 `json:"job_retries,omitempty"`
	BudgetExhausted   map[string]int64 `json:"budget_exhausted,omitempty"`
	JobsDegraded      int64            `json:"jobs_degraded"`
	AdmissionRejected int64            `json:"admission_rejected"`

	QueueDepth  int `json:"queue_depth"`
	Workers     int `json:"workers"`
	WorkersBusy int `json:"workers_busy"`

	VetRequests    int64 `json:"vet_requests"`
	VetRejected    int64 `json:"vet_rejected"`
	StaticAnswered int64 `json:"static_tier_answers"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Store is the durable disk tier's snapshot (nil when no store is
	// configured).
	Store *StoreSnapshot `json:"store,omitempty"`

	// TraceSpansDropped counts spans lost to per-trace caps; TraceExport
	// is the OTLP exporter's snapshot (nil when export is not
	// configured).
	TraceSpansDropped int64                  `json:"trace_spans_dropped"`
	TraceExport       *telemetry.ExportStats `json:"trace_export,omitempty"`

	SessionsLive     int              `json:"sessions_live"`
	SessionBytes     int64            `json:"session_bytes"`
	SessionHits      int64            `json:"session_hits"`
	SessionMisses    int64            `json:"session_misses"`
	SessionEvictions map[string]int64 `json:"session_evictions,omitempty"`

	// LayerWork sums every finished job's layer work counters, keyed
	// layer.counter (search.conflicts, compile.terms): the fold of the
	// jobs' traces, portfolio losers and failed attempts included.
	LayerWork map[string]int64 `json:"layer_work,omitempty"`

	SolveCount      int64            `json:"solve_count"`
	SolveSecondsSum float64          `json:"solve_seconds_sum"`
	SolveBuckets    map[string]int64 `json:"solve_latency_buckets"`

	PortfolioWins       map[string]int64 `json:"portfolio_wins"`
	PortfolioCount      int64            `json:"portfolio_count"`
	PortfolioSecondsSum float64          `json:"portfolio_seconds_sum"`
	PortfolioBuckets    map[string]int64 `json:"portfolio_latency_buckets"`

	StageCount      map[string]int64            `json:"stage_count,omitempty"`
	StageSecondsSum map[string]float64          `json:"stage_seconds_sum,omitempty"`
	StageBuckets    map[string]map[string]int64 `json:"stage_latency_buckets,omitempty"`

	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (m *metrics) snapshot(queueDepth, workers, cacheEntries, sessionsLive int, sessionBytes int64) Snapshot {
	s := Snapshot{
		JobsSubmitted: make(map[string]int64, len(m.submitted)),
		JobsCompleted: m.completed.Load(),
		JobsFailed:    m.failed.Load(),
		JobsCanceled:  m.canceled.Load(),
		JobsRejected:  m.rejected.Load(),

		JobsDegraded:      m.degradedJobs.Load(),
		AdmissionRejected: m.admissionRejected.Load(),

		QueueDepth:  queueDepth,
		Workers:     workers,
		WorkersBusy: int(m.workersBusy.Load()),

		VetRequests:    m.vetRequests.Load(),
		VetRejected:    m.vetRejected.Load(),
		StaticAnswered: m.staticAnswered.Load(),

		CacheHits:    m.cacheHits.Load(),
		CacheMisses:  m.cacheMisses.Load(),
		CacheEntries: cacheEntries,

		SessionsLive:  sessionsLive,
		SessionBytes:  sessionBytes,
		SessionHits:   m.sessionHits.Load(),
		SessionMisses: m.sessionMisses.Load(),

		TraceSpansDropped: m.traceSpansDropped.Load(),
	}
	for k, n := range m.submitted {
		s.JobsSubmitted[string(k)] = n.Load()
	}
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	// Labeled counters are omitted from JSON while empty (omitempty drops
	// an empty map just like a nil one).
	m.labMu.Lock()
	s.JobsFailedBy, s.JobRetries, s.BudgetExhausted = maps.Clone(m.failedBy), maps.Clone(m.retriesBy), maps.Clone(m.budgetBy)
	s.SessionEvictions, s.LayerWork = maps.Clone(m.evictionsBy), maps.Clone(m.work)
	m.labMu.Unlock()
	m.latMu.Lock()
	s.SolveCount, s.SolveSecondsSum, s.SolveBuckets = m.solve.snapshot()
	m.latMu.Unlock()
	m.portMu.Lock()
	s.PortfolioWins = maps.Clone(m.portWins)
	s.PortfolioCount, s.PortfolioSecondsSum, s.PortfolioBuckets = m.portfolio.snapshot()
	m.portMu.Unlock()
	m.stageMu.Lock()
	if len(m.stages) > 0 {
		s.StageCount = make(map[string]int64, len(m.stages))
		s.StageSecondsSum = make(map[string]float64, len(m.stages))
		s.StageBuckets = make(map[string]map[string]int64, len(m.stages))
		for name, h := range m.stages {
			s.StageCount[name], s.StageSecondsSum[name], s.StageBuckets[name] = h.snapshot()
		}
	}
	m.stageMu.Unlock()
	s.Version = Version
	s.GoVersion = goVersion()
	s.UptimeSeconds = time.Since(m.start).Seconds()
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters and gauges; solve latency as a cumulative histogram).
func (s Snapshot) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	labeled := func(name, help, label string, by map[string]int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		keys := make([]string, 0, len(by))
		for k := range by {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, by[k])
		}
	}
	// hist writes one histogram's samples; label is "" or `name="value",`.
	hist := func(name, label string, count int64, sum float64, buckets map[string]int64) {
		for _, bound := range latencyBuckets {
			fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, label, bound, buckets[fmt.Sprintf("le_%g", bound)])
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, label, count)
		if label != "" {
			label = "{" + strings.TrimSuffix(label, ",") + "}"
		}
		fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, label, sum, name, label, count)
	}

	labeled("buffy_jobs_submitted_total", "Analysis jobs submitted, by kind.", "kind", s.JobsSubmitted)

	counter("buffy_jobs_completed_total", "Jobs that finished with a result.", s.JobsCompleted)
	counter("buffy_jobs_failed_total", "Jobs that failed (bad program, deadline, panic).", s.JobsFailed)
	labeled("buffy_jobs_failed_reason_total", "Failed jobs by failure-taxonomy reason.",
		"reason", s.JobsFailedBy)
	counter("buffy_jobs_canceled_total", "Jobs aborted by cancellation.", s.JobsCanceled)
	counter("buffy_jobs_rejected_total", "Submissions shed (queue full or unmeetable deadline).", s.JobsRejected)
	counter("buffy_admission_rejected_total", "Submissions rejected by deadline-aware admission.", s.AdmissionRejected)
	labeled("buffy_job_retries_total", "Transient-failure retries by reason.",
		"reason", s.JobRetries)
	labeled("buffy_budget_exhausted_total", "Solver runs stopped by a resource budget.",
		"resource", s.BudgetExhausted)
	counter("buffy_jobs_degraded_total", "Retries that stepped down the degradation ladder.", s.JobsDegraded)

	gauge("buffy_queue_depth", "Jobs waiting for a worker.", float64(s.QueueDepth))
	gauge("buffy_workers", "Configured worker pool size.", float64(s.Workers))
	gauge("buffy_workers_busy", "Workers currently solving.", float64(s.WorkersBusy))

	counter("buffy_vet_requests_total", "POST /v1/vet static-analysis requests served.", s.VetRequests)
	counter("buffy_vet_rejected_total", "Vet requests whose program had error-severity findings.", s.VetRejected)
	counter("buffy_static_tier_answers_total", "Solver jobs answered by the pre-solve static tier.", s.StaticAnswered)

	counter("buffy_cache_hits_total", "Analyses served from the result cache.", s.CacheHits)
	counter("buffy_cache_misses_total", "Analyses that had to solve.", s.CacheMisses)
	gauge("buffy_cache_entries", "Results currently cached.", float64(s.CacheEntries))
	gauge("buffy_cache_hit_rate", "Lifetime cache hit fraction.", s.CacheHitRate)

	if st := s.Store; st != nil {
		counter("buffy_store_hits_total", "Durable-tier reads that verified and served an entry.", st.Hits)
		counter("buffy_store_misses_total", "Durable-tier reads that found no servable entry.", st.Misses)
		counter("buffy_store_writes_total", "Entries written durably (temp + fsync + rename).", st.Writes)
		counter("buffy_store_write_errors_total", "Durable writes that failed (full disk, read-only store).", st.WriteErrors)
		counter("buffy_store_read_errors_total", "Durable reads that failed at the I/O layer.", st.ReadErrors)
		counter("buffy_store_dropped_total", "Write-behinds dropped before reaching the store.", st.Dropped)
		counter("buffy_store_quarantined_total", "Entries withdrawn to quarantine (torn, bit-rotted, mismatched).", st.Quarantined)
		counter("buffy_store_evictions_total", "Valid entries deleted by the LRU byte-budget GC.", st.Evictions)
		counter("buffy_store_invalidations_total", "Wholesale entry-set invalidations (pipeline fingerprint changed).", st.Invalidations)
		gauge("buffy_store_entries", "Entries resident in the durable tier.", float64(st.Entries))
		gauge("buffy_store_bytes", "Bytes resident in the durable tier.", float64(st.Bytes))
		ro := 0.0
		if st.ReadOnly {
			ro = 1
		}
		gauge("buffy_store_read_only", "1 when the durable tier is degraded to read-only.", ro)
	}

	gauge("buffy_sessions_live", "Warm solver sessions currently pooled.", float64(s.SessionsLive))
	gauge("buffy_session_bytes", "Estimated pool memory: encodings plus learnt-clause databases.", float64(s.SessionBytes))
	counter("buffy_session_hits_total", "Sweeps served by an already-warm pooled session.", s.SessionHits)
	counter("buffy_session_misses_total", "Sweeps that built a new session.", s.SessionMisses)
	labeled("buffy_session_evictions_total", "Pool evictions by reason (entries: LRU slots, memory: byte budget).",
		"reason", s.SessionEvictions)

	counter("buffy_trace_spans_dropped_total", "Spans lost to per-trace caps (undersized -trace-spans).", s.TraceSpansDropped)
	if ex := s.TraceExport; ex != nil {
		counter("buffy_trace_export_traces_total", "Trace snapshots accepted for OTLP export.", ex.Traces)
		counter("buffy_trace_export_dropped_total", "Trace snapshots dropped: export queue full.", ex.Dropped)
		counter("buffy_trace_export_pushed_total", "OTLP batches pushed to the collector.", ex.Pushed)
		counter("buffy_trace_export_push_retries_total", "OTLP push attempts retried (transient failures).", ex.PushRetries)
		counter("buffy_trace_export_push_failed_total", "OTLP batches abandoned after retries or on 4xx.", ex.PushFailed)
		counter("buffy_trace_export_spooled_total", "ResourceSpans lines written to the NDJSON spool.", ex.Spooled)
		counter("buffy_trace_export_spool_errors_total", "Spool write/marshal failures.", ex.SpoolErrors)
	}

	labeled("buffy_layer_work_total", "Work counters of the pipeline layers, summed over finished job traces.",
		"counter", s.LayerWork)

	fmt.Fprintf(w, "# HELP buffy_solve_duration_seconds Analysis solve wall time.\n# TYPE buffy_solve_duration_seconds histogram\n")
	hist("buffy_solve_duration_seconds", "", s.SolveCount, s.SolveSecondsSum, s.SolveBuckets)

	labeled("buffy_portfolio_wins_total", "Portfolio races won, by solver configuration.", "config", s.PortfolioWins)
	fmt.Fprintf(w, "# HELP buffy_portfolio_duration_seconds Portfolio race wall time (first conclusive answer).\n# TYPE buffy_portfolio_duration_seconds histogram\n")
	hist("buffy_portfolio_duration_seconds", "", s.PortfolioCount, s.PortfolioSecondsSum, s.PortfolioBuckets)

	fmt.Fprintf(w, "# HELP buffy_stage_duration_seconds Per-pipeline-stage time from finished traces.\n# TYPE buffy_stage_duration_seconds histogram\n")
	stages := make([]string, 0, len(s.StageCount))
	for name := range s.StageCount {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		hist("buffy_stage_duration_seconds", fmt.Sprintf("stage=%q,", name), s.StageCount[name], s.StageSecondsSum[name], s.StageBuckets[name])
	}

	fmt.Fprintf(w, "# HELP buffy_build_info Build metadata (value is always 1).\n# TYPE buffy_build_info gauge\n")
	fmt.Fprintf(w, "buffy_build_info{version=%q,goversion=%q} 1\n", s.Version, s.GoVersion)
	gauge("buffy_uptime_seconds", "Seconds since the engine started.", s.UptimeSeconds)
}
