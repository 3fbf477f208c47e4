package service

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/faultinject"
	"buffy/internal/session"
	"buffy/internal/telemetry"
)

// runFunc answers one attempt of a kind on the parsed program. req is the
// effective request (the retry ladder may have degraded it); a is its
// analysis. ctx carries the job's trace and progress feed.
type runFunc func(ctx context.Context, job *Job, req *Request, prog *core.Program, a core.Analysis) (*Result, error)

// kindSpec is everything the service knows about one analysis kind.
type kindSpec struct {
	run runFunc
	// retries: a transient failure enters the retry/degradation ladder.
	retries bool
	// streams: the job streams per-horizon verdicts while it runs and its
	// POST route answers NDJSON.
	streams bool
}

// kinds is the one table of analysis kinds: validation, routing
// (POST /v1/{kind}), the worker's dispatch and the per-kind submit
// counters all read it, and nothing else in the package branches on a
// Kind.
var kinds = map[Kind]kindSpec{
	KindVerify:     {retries: true, run: runCheck(KindVerify, smtbe.Verify)},
	KindWitness:    {retries: true, run: runCheck(KindWitness, smtbe.Witness)},
	KindSynthesize: {retries: true, run: runSynthesize},
	KindBound:      {retries: true, run: runBound},
	// Sweeps sit outside the retry ladder: their verdicts already streamed
	// to the client, so a re-run would replay horizons the reader has seen
	// (and the degradation ladder's knobs would change the session
	// fingerprint mid-stream anyway).
	KindSweep: {streams: true, run: runSweep},
}

// kindNames lists every kind, sorted, for error messages.
func kindNames() string {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// runAttempt runs one attempt of req through its kind behind the
// worker-pool panic shield: Validate should reject anything that can
// panic, but a panic that slips through must fail one job, not crash the
// service. The recovered panic is wrapped in ErrAnalysisPanic so the
// failure taxonomy can classify it as transient.
func runAttempt(ctx context.Context, spec kindSpec, job *Job, req *Request) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrAnalysisPanic, r)
		}
	}()
	faultinject.Do(ctx, faultinject.PointAllocPressure)
	faultinject.Do(ctx, faultinject.PointSolverStall)
	faultinject.Do(ctx, faultinject.PointWorkerPanic)
	_, psp := telemetry.StartSpan(ctx, "parse")
	prog, err := core.Parse(req.Source)
	psp.End()
	if err != nil {
		return nil, err
	}
	return spec.run(ctx, job, req, prog, req.analysis())
}

// runCheck builds the run func of a verify/witness kind; core.Check
// decides between a single solver and a race of req.Portfolio configs.
func runCheck(kind Kind, mode smtbe.Mode) runFunc {
	return func(ctx context.Context, _ *Job, _ *Request, prog *core.Program, a core.Analysis) (*Result, error) {
		pr, err := prog.Check(ctx, a, mode)
		if err != nil {
			return nil, err
		}
		return resultFromCheck(kind, pr), nil
	}
}

func runSynthesize(ctx context.Context, _ *Job, _ *Request, prog *core.Program, a core.Analysis) (*Result, error) {
	r, err := prog.Synthesize(ctx, a)
	if err != nil {
		return nil, err
	}
	return resultFromSynth(r), nil
}

func runBound(ctx context.Context, _ *Job, _ *Request, prog *core.Program, a core.Analysis) (*Result, error) {
	r, err := prog.Bound(ctx, a)
	if err != nil {
		return nil, err
	}
	return resultFromBound(r), nil
}

// runSweep answers a sweep request on a pooled warm session: acquire (or
// single-flight build) the session for the request's fingerprint, then
// deepen 1..max_t by assumption-based re-solve, streaming each horizon's
// verdict to the job as it lands. A program whose encoding cannot be
// shared across horizons (session.ErrConstHorizon) sweeps cold; a session
// evicted mid-sweep degrades the remaining horizons to cold solves.
func runSweep(ctx context.Context, job *Job, req *Request, prog *core.Program, a core.Analysis) (*Result, error) {
	maxT := req.effMaxT()
	a.T = maxT // session capacity; also what the pre-solve vet gate sees
	mode := smtbe.Verify
	if req.SweepMode == "witness" {
		mode = smtbe.Witness
	}
	sess, release, hit, err := job.engine.sessions.acquire(ctx, req.SessionKey(), func() (*session.Session, error) {
		return prog.NewSession(a, maxT)
	})
	if err != nil {
		return nil, err
	}
	defer release()
	sr, err := prog.SweepWithSession(ctx, sess, a, session.SweepOptions{
		MaxT: maxT, Mode: mode,
		OnVerdict: func(v session.Verdict) { job.sendVerdict(verdictOf(v)) },
	})
	if err != nil {
		return nil, err
	}
	return resultFromSweep(sr, hit), nil
}
