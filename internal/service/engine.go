package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffy/internal/faultinject"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
	"buffy/internal/store"
	"buffy/internal/telemetry"
)

// Submission errors.
var (
	// ErrQueueFull is returned when the bounded queue has no room; callers
	// should shed load (HTTP 503) rather than block the accept loop.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed is returned once Shutdown has begun.
	ErrClosed = errors.New("service: engine shut down")
	// ErrDeadlineUnmeetable is returned by deadline-aware admission: given
	// the queue backlog and the request class's recent latency, the job
	// would blow its deadline before a worker could finish it — so it is
	// rejected at submit time instead of timing out later.
	ErrDeadlineUnmeetable = errors.New("service: deadline unmeetable under current load")
)

// State is a job's lifecycle phase.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one analysis in flight. All accessors are safe for concurrent
// use; Done() closes exactly once when the job reaches a terminal state.
type Job struct {
	ID  string
	Req *Request

	// key is Req's CacheKey, hashed once at submit; the worker caches the
	// answer under it.
	key    string
	engine *Engine
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// trace and progress are created with the job and immutable after:
	// readers poll them concurrently with the solve (both types are
	// internally synchronized). progress also accumulates the job's
	// SearchReport (attached to the result, served by
	// /v1/jobs/{id}/explain). Cache-hit jobs carry neither.
	trace    *telemetry.Trace
	progress *sat.Progress

	// verdicts streams a sweep job's per-horizon answers to a listening
	// handler. Buffered for the deepest possible sweep so the worker never
	// blocks on a slow (or absent) reader; closed by the worker when the
	// sweep ends. Nil for non-sweep and cache-hit jobs.
	verdicts chan SweepVerdict

	mu        sync.Mutex
	state     State
	result    *Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Trace returns the job's span trace (nil for cache-hit jobs). Safe to
// snapshot while the job runs.
func (j *Job) Trace() *telemetry.Trace { return j.trace }

// Progress returns the job's live solver-effort feed (nil for cache-hit
// jobs). Safe to Snapshot() or Report() while the job runs.
func (j *Job) Progress() *sat.Progress { return j.progress }

// Verdicts returns the sweep job's per-horizon verdict stream (nil for
// non-sweep and cache-hit jobs). The worker closes it when the sweep
// ends; a job canceled while queued never closes it, so readers must
// also select on Done.
func (j *Job) Verdicts() <-chan SweepVerdict { return j.verdicts }

// sendVerdict forwards one horizon verdict to the stream. The buffer
// covers the deepest sweep, so a full channel can only mean a logic bug;
// dropping (rather than blocking a worker forever) is the safe failure.
func (j *Job) sendVerdict(v SweepVerdict) {
	select {
	case j.verdicts <- v:
	default:
	}
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's outcome once terminal (nil, nil before that).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Wait blocks until the job is terminal or ctx expires. On ctx expiry the
// job keeps running (callers decide whether to Cancel).
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel aborts the job: a queued job completes immediately as canceled,
// a running job's solver observes the cancellation cooperatively and
// unwinds within a bounded number of search steps.
func (j *Job) Cancel() {
	j.cancel()
	// A queued job will never be started by a worker once canceled, so it
	// must be finished here or waiters would hang.
	if j.finishFrom(StateQueued, StateCanceled, nil, context.Canceled) {
		j.engine.met.canceled.Add(1)
		j.engine.noteFinished(j.ID)
	}
}

// tryStart flips queued → running; false means the job was canceled
// while waiting and the worker must skip it.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finishFrom moves the job to the terminal state st only while it is
// still in state from, and reports whether this call made the move.
// Cancel finishes from StateQueued (a running job is left to its worker,
// which observes the cancellation from the solver and unwinds); the
// worker finishes from StateRunning.
func (j *Job) finishFrom(from, st State, res *Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	close(j.done)
	return true
}

// Times returns the submit/start/finish timestamps (zero if not reached).
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

// Config sizes the engine. Zero values pick production-sane defaults.
type Config struct {
	// Workers is the solver pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). Beyond
	// it Submit returns ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the in-memory LRU result cache (default 256;
	// negative disables the memory tier, leaving Store as the only one).
	CacheEntries int
	// DefaultTimeout is the per-job deadline when a request does not set
	// one (default 60s; negative means no deadline).
	DefaultTimeout time.Duration
	// Retention caps how many finished jobs stay queryable via Job()
	// (default 1024).
	Retention int
	// MaxRetries caps how many times a transient failure (budget
	// exhaustion, recovered panic, portfolio disagreement) is retried with
	// an escalated or degraded configuration. Default 0: every attempt's
	// outcome is final, preserving the library's one-shot semantics;
	// buffy-serve opts in via its -retries flag.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// Logger receives structured job-lifecycle logs (default: discard).
	Logger *slog.Logger
	// TraceSpans bounds each job trace's span count (<= 0:
	// telemetry.DefaultMaxSpans). Every solving job is traced: /metrics
	// folds its layer work from the trace.
	TraceSpans int
	// TraceRetention caps how many finished traces stay browsable via
	// /v1/traces after their jobs are pruned (default 128).
	TraceRetention int
	// SessionEntries bounds the warm-session pool for sweep jobs (default
	// 32; negative disables pooling — every sweep builds a private
	// session).
	SessionEntries int
	// SessionMaxBytes bounds the pool's estimated memory: problem
	// encodings plus learnt-clause databases (default 256 MiB; sessions
	// whose learnt DB grows push colder entries out).
	SessionMaxBytes int64
	// Store, when non-nil, is the durable second cache tier: conclusive
	// results are written behind (asynchronously) and missed keys are
	// read through on Submit. The engine takes ownership and closes it
	// on Shutdown. Open it under service.PipelineFingerprint() so a
	// pipeline change invalidates stored answers.
	Store *store.Store
	// Exporter, when non-nil, receives every finished job's trace
	// snapshot for OTLP export. The engine only enqueues (never blocks);
	// the caller that built the exporter owns its lifecycle and closes
	// it after Shutdown drains the workers.
	Exporter *telemetry.Exporter
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Retention <= 0 {
		c.Retention = 1024
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.TraceRetention <= 0 {
		c.TraceRetention = 128
	}
	if c.SessionEntries == 0 {
		c.SessionEntries = 32
	}
	if c.SessionMaxBytes == 0 {
		c.SessionMaxBytes = 256 << 20
	}
	return c
}

// Engine is the analysis job engine: a bounded queue feeding a worker
// pool, fronted by a content-addressed result cache.
type Engine struct {
	cfg      Config
	queue    chan *Job
	cache    *resultCache
	met      *metrics
	admit    *admission
	log      *slog.Logger
	traces   *traceRing
	sessions *sessionPool

	draining atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	finished []string // finished job IDs, oldest first, for retention pruning
	nextID   int64

	wg sync.WaitGroup
}

// New starts an engine with cfg.Workers solver workers.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	met := newMetrics()
	e := &Engine{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		cache:      newResultCache(cfg.CacheEntries, cfg.Store, cfg.Logger),
		met:        met,
		admit:      newAdmission(),
		log:        cfg.Logger,
		traces:     newTraceRing(cfg.TraceRetention),
		sessions:   newSessionPool(cfg.SessionEntries, cfg.SessionMaxBytes, met),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Submit validates and enqueues a request. A cache hit — in the memory
// LRU or, missing that, the durable disk tier — returns an
// already-terminal job carrying the cached result, no worker involved;
// a disk hit is also promoted into the memory tier.
func (e *Engine) Submit(req *Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key := req.CacheKey()
	// A closed engine refuses before touching the cache, so refused
	// requests never read the store or count as hits.
	if e.Closed() {
		return nil, ErrClosed
	}
	// The lookup runs outside the engine lock: a disk read-through is real
	// I/O (read + checksum) and must not serialize submissions.
	cached, tier, hit := e.cache.get(key)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if hit {
		return e.serveCachedLocked(req, cached, tier), nil
	}

	// Deadline-aware admission: with queueLen jobs already waiting for
	// cfg.Workers workers, this job starts after roughly queueLen/workers
	// typical solves and then needs one more of its own. If that cannot
	// fit inside its deadline, admitting it only converts a fast 503 into
	// a slow 504 while burning a queue slot.
	if est, ok := e.admit.estimate(req.Kind); ok {
		deadline := time.Duration(req.TimeoutMS) * time.Millisecond
		if deadline <= 0 {
			deadline = e.cfg.DefaultTimeout
		}
		if deadline > 0 {
			eta := est + est*time.Duration(len(e.queue))/time.Duration(e.cfg.Workers)
			if eta > deadline {
				e.met.rejected.Add(1)
				e.met.admissionRejected.Add(1)
				return nil, fmt.Errorf("%w: estimated completion %v > deadline %v",
					ErrDeadlineUnmeetable, eta.Round(time.Millisecond), deadline)
			}
		}
	}

	job := e.newJobLocked(req)
	job.key = key
	select {
	case e.queue <- job:
	default:
		delete(e.jobs, job.ID)
		job.cancel()
		// Rejected work never counts as submitted: submitted must
		// reconcile with completed+failed+canceled.
		e.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	e.met.recordSubmit(req.Kind)
	e.met.cacheMisses.Add(1)
	return job, nil
}

// serveCachedLocked builds the already-terminal job a cache hit returns,
// stamped with the tier that served it.
func (e *Engine) serveCachedLocked(req *Request, cached *Result, tier string) *Job {
	e.met.recordSubmit(req.Kind)
	e.met.cacheHits.Add(1)
	job := e.newJobLocked(req)
	// A cache hit never runs the pipeline: no spans to record, no
	// live progress to poll, no verdicts to stream (they ride in the
	// cached result).
	job.trace, job.progress, job.verdicts = nil, nil, nil
	// Shallow copy: the trace/workload payload is shared (immutable),
	// only the per-response CacheHit/CacheTier stamps differ.
	res := *cached
	res.CacheHit = true
	res.CacheTier = tier
	job.state = StateDone
	job.result = &res
	job.started = job.submitted
	job.finished = job.submitted
	close(job.done)
	e.met.completed.Add(1)
	e.noteFinishedLocked(job.ID)
	return job
}

func (e *Engine) newJobLocked(req *Request) *Job {
	e.nextID++
	ctx, cancel := context.WithCancel(e.baseCtx)
	id := fmt.Sprintf("j%08d", e.nextID)
	job := &Job{
		ID:        id,
		Req:       req,
		engine:    e,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		trace:     telemetry.NewTraceN(id, e.cfg.TraceSpans),
		progress:  &sat.Progress{},
		state:     StateQueued,
		submitted: time.Now(),
	}
	if kinds[req.Kind].streams {
		job.verdicts = make(chan SweepVerdict, MaxHorizon+1)
	}
	e.jobs[job.ID] = job
	return job
}

// Closed reports whether Shutdown has begun.
func (e *Engine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// BeginDrain marks the engine as draining: readiness probes start
// failing so load balancers stop routing new work here, while already
// accepted jobs keep running. Call it ahead of Shutdown to drain
// gracefully behind a balancer.
func (e *Engine) BeginDrain() { e.draining.Store(true) }

// Ready reports whether the engine should receive new work: true until
// BeginDrain or Shutdown. Liveness is separate — a draining engine is
// alive but not ready.
func (e *Engine) Ready() bool { return !e.draining.Load() && !e.Closed() }

// RetryAfter estimates, in whole seconds (min 1), how long a shed client
// should wait before retrying: the queue backlog divided across the
// worker pool, priced at the slowest request class's recent latency.
func (e *Engine) RetryAfter() int {
	est := e.admit.maxEstimate()
	if est <= 0 {
		return 1
	}
	wait := est * time.Duration(len(e.queue)+1) / time.Duration(e.cfg.Workers)
	if secs := int(math.Ceil(wait.Seconds())); secs > 1 {
		return secs
	}
	return 1
}

// Job looks up a job by ID (live or within the retention window).
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Metrics returns a point-in-time snapshot of all counters.
func (e *Engine) Metrics() Snapshot {
	live, bytes := e.sessions.stats()
	s := e.met.snapshot(len(e.queue), e.cfg.Workers, e.cache.len(), live, bytes)
	if st := e.cache.store; st != nil {
		s.Store = &StoreSnapshot{Stats: st.Stats(), Dropped: e.cache.dropped.Load()}
	}
	if e.cfg.Exporter != nil {
		ex := e.cfg.Exporter.Stats()
		s.TraceExport = &ex
	}
	return s
}

// Shutdown stops accepting jobs and drains the pool gracefully: queued
// and running jobs finish normally. If ctx expires first, every
// in-flight solve is force-cancelled cooperatively and Shutdown returns
// once workers unwind.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.draining.Store(true)
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		e.baseCancel() // abort in-flight CDCL searches
		<-drained
		err = ctx.Err()
	}
	// Workers are gone, so no new write-behinds can arrive.
	e.cache.close()
	e.sessions.closeAll()
	return err
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		e.runJob(job)
	}
}

func (e *Engine) runJob(job *Job) {
	if !job.tryStart() {
		return // canceled while queued
	}
	e.met.workersBusy.Add(1)
	defer e.met.workersBusy.Add(-1)

	ctx := job.ctx
	timeout := time.Duration(job.Req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	timeout = faultinject.SkewDuration(faultinject.PointClockSkew, timeout)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	faultinject.WithCancel(faultinject.PointCancelStorm, job.cancel)

	log := e.log.With("job", job.ID, "kind", string(job.Req.Kind), "trace", job.trace.ID())
	log.Info("job started", "queued_ms", time.Since(job.submitted).Milliseconds())

	ctx = telemetry.WithTrace(ctx, job.trace)
	ctx = solver.WithProgress(ctx, job.progress)
	ctx, jobSpan := telemetry.StartSpan(ctx, "job")
	start := time.Now()
	o := e.attempt(ctx, job, log)
	elapsed := time.Since(start)
	if job.verdicts != nil {
		// However the attempt ended, the stream closes: the streaming
		// handler's read loop must never outlive the worker.
		close(job.verdicts)
	}
	jobSpan.SetAttrs(telemetry.Int("attempts", int64(o.attempts)))
	jobSpan.End()
	// Fold the finished trace into the stage histograms and the layer
	// work counters before the job turns terminal, so a caller that saw
	// it finish reads metrics that include it.
	e.met.recordStages(job.trace.Durations())
	e.met.recordWork(job.trace.Work())
	e.finish(job, o, elapsed)
	e.retainTrace(job, elapsed)
	switch st := job.State(); st {
	case StateDone:
		log.Info("job finished", "state", string(st), "result", o.res.Status,
			"attempts", o.attempts, "elapsed_ms", elapsed.Milliseconds())
	default:
		log.Warn("job finished", "state", string(st), "reason", o.reason,
			"attempts", o.attempts, "elapsed_ms", elapsed.Milliseconds(), "err", errString(o.err))
	}
	e.noteFinished(job.ID)
}

// jobOutcome is how a job's last attempt ended.
type jobOutcome struct {
	res      *Result
	err      error
	class    failureClass
	reason   string
	degraded string // the last degradation step a retry applied
	attempts int
}

// attempt runs the job's kind until an attempt ends in anything but a
// retryable failure, or the retries run out. Each retry degrades the
// request (a copy; the cache key stays the original request's) and
// backs off first.
func (e *Engine) attempt(ctx context.Context, job *Job, log *slog.Logger) jobOutcome {
	eff := *job.Req
	req := &eff
	spec := kinds[req.Kind]
	var o jobOutcome
	for {
		o.attempts++
		actx := ctx
		var asp *telemetry.Span
		if o.attempts > 1 {
			// Retries get their own span so a degraded re-run is visible
			// in the tree; the first attempt's stages sit directly under
			// the job span, keeping the common case flat.
			actx, asp = telemetry.StartSpan(ctx, "attempt")
			asp.SetAttrs(telemetry.Int("n", int64(o.attempts)), telemetry.String("degraded", o.degraded))
		}
		o.res, o.err = runAttempt(actx, spec, job, req)
		asp.End()
		o.class, o.reason = classify(o.res, o.err)
		if strings.HasPrefix(o.reason, "budget-") {
			e.met.count(e.met.budgetBy, strings.TrimPrefix(o.reason, "budget-"))
		}
		if !spec.retries || o.class != failTransient || o.attempts > e.cfg.MaxRetries {
			return o
		}
		e.met.count(e.met.retriesBy, o.reason)
		if step := degradeForRetry(req, o.reason); step != "" {
			o.degraded = step
			e.met.degradedJobs.Add(1)
		}
		log.Warn("job retrying", "attempt", o.attempts, "reason", o.reason, "degraded", o.degraded)
		// Exponential backoff, interruptible by deadline or cancel: a
		// context that dies mid-backoff ends the job with the context's
		// own classification instead of burning another attempt.
		timer := time.NewTimer(e.cfg.RetryBackoff << (o.attempts - 1))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			o.res, o.err = nil, ctx.Err()
			o.class, o.reason = classify(o.res, o.err)
			return o
		}
	}
}

// finish moves the job to its terminal state and counts the outcome.
func (e *Engine) finish(job *Job, o jobOutcome, elapsed time.Duration) {
	switch o.class {
	case failNone, failTransient:
		if o.err != nil {
			// Transient error (panic, disagreement) with retries exhausted.
			e.met.recordFailed(o.reason)
			job.finishFrom(StateRunning, StateFailed, nil, o.err)
			return
		}
		// Either a definite answer or an Unknown the caller must interpret
		// (budget exhausted with no retries left is still a valid Unknown).
		res := o.res
		e.met.completed.Add(1)
		e.met.recordSolve(elapsed)
		e.admit.observe(job.Req.Kind, elapsed)
		if res.Tier == "static" {
			e.met.staticAnswered.Add(1)
		}
		if res.PortfolioSize > 1 {
			e.met.recordPortfolio(res.PortfolioWinner, elapsed)
		}
		res.Attempts = o.attempts
		res.Degraded = o.degraded
		if rep := job.progress.Report(); rep != nil && rep.Totals.Solves > 0 {
			// Attach the search introspection record to the result (and
			// therefore to both cache tiers: explain works on cache hits
			// too). Static-tier and netcalc answers never ran a solver, so
			// they carry no report. The winner is known only here, where
			// the portfolio outcome is.
			rep.SetWinner(res.PortfolioWinner)
			res.Search = rep
		}
		if res.conclusive() {
			e.cache.put(job.key, res)
		}
		job.finishFrom(StateRunning, StateDone, res, nil)
	case failCanceled:
		e.met.canceled.Add(1)
		job.finishFrom(StateRunning, StateCanceled, nil, o.err)
	case failDeadline:
		// The timeout is a lower bound on the true latency; feeding it to
		// the admission EWMA keeps the estimate honest under overload.
		e.met.recordFailed(o.reason)
		e.admit.observe(job.Req.Kind, elapsed)
		job.finishFrom(StateRunning, StateFailed, nil, o.err)
	default: // failPermanent: parse/type/compile errors.
		e.met.recordFailed(o.reason)
		job.finishFrom(StateRunning, StateFailed, nil, o.err)
	}
}

// retainTrace keeps the finished trace for /v1/traces (the Job itself is
// pruned by retention earlier) and ships it to the OTLP exporter.
func (e *Engine) retainTrace(job *Job, elapsed time.Duration) {
	snap := job.trace.Snapshot()
	if snap.Dropped > 0 {
		// Span truncation is invisible in the tree itself; count it so
		// an undersized -trace-spans shows up on /metrics.
		e.met.traceSpansDropped.Add(int64(snap.Dropped))
	}
	e.traces.add(TraceSummary{
		JobID:      job.ID,
		Kind:       string(job.Req.Kind),
		State:      string(job.State()),
		StartedAt:  snap.StartedAt,
		DurationMS: elapsed.Milliseconds(),
		NumSpans:   snap.NumSpans,
	}, job.trace)
	// Enqueue never blocks: a slow or down collector costs dropped
	// snapshots, never solver latency.
	e.cfg.Exporter.Enqueue(snap,
		telemetry.String("buffy.job_kind", string(job.Req.Kind)),
		telemetry.String("buffy.job_state", string(job.State())))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (e *Engine) noteFinished(id string) {
	e.mu.Lock()
	e.noteFinishedLocked(id)
	e.mu.Unlock()
}

// noteFinishedLocked records a finished job for retention pruning: once
// more than cfg.Retention jobs have finished, the oldest are forgotten.
func (e *Engine) noteFinishedLocked(id string) {
	e.finished = append(e.finished, id)
	for len(e.finished) > e.cfg.Retention {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
}
