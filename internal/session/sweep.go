package session

import (
	"context"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/lang/typecheck"
	"buffy/internal/telemetry"
)

// Verdict is one horizon's answer within a sweep.
type Verdict struct {
	// T is the horizon this verdict is for.
	T int
	// Status is the horizon's outcome.
	Status smtbe.Status
	// Duration is this horizon's solve wall clock.
	Duration time.Duration
	// Warm reports whether the warm session answered (false: cold
	// per-horizon compile+solve, either because the program cannot share
	// an encoding or because the session was evicted mid-sweep).
	Warm bool
	// Conflicts is this horizon's own CDCL conflict count, warm or cold:
	// the conflicts its search span records.
	Conflicts int64
}

// SweepResult is the outcome of a horizon sweep.
type SweepResult struct {
	// Verdicts holds one entry per solved horizon, in increasing order.
	Verdicts []Verdict
	// Final is the result that ended the sweep: the first horizon whose
	// answer carries a trace, an Unknown that stopped it, or the last
	// horizon's result when the sweep ran dry.
	Final *smtbe.Result
	// FoundAt is the first horizon that produced a trace; 0 when none.
	FoundAt int
	// Warm reports whether every verdict came from the warm session.
	Warm bool
	// Duration is the whole sweep's wall clock.
	Duration time.Duration
}

// SweepOptions configures a sweep.
type SweepOptions struct {
	// MaxT is the deepest horizon to try.
	MaxT int
	// Mode is the query direction for every horizon.
	Mode smtbe.Mode
	// OnVerdict, when non-nil, is called with each horizon's verdict as
	// it lands (the streaming hook). Called from the sweeping goroutine.
	OnVerdict func(Verdict)
}

// Sweep runs the minimal-horizon search: solve horizons 1..MaxT in order
// until one produces a trace. With a live session the horizons are
// assumption-based re-solves on one warm encoding; when sess is nil, or
// the session is evicted mid-sweep (ErrClosed) or cannot answer
// (ErrHorizon), the remaining horizons degrade to cold per-horizon solves
// under cold (its Mode and IR.T are set per horizon) — slower, never
// wrong. Each horizon gets a telemetry span
// ("sweep.horizon", attrs t/status/warm) for the service's stage
// histograms.
func Sweep(ctx context.Context, info *typecheck.Info, sess *Session, cold smtbe.Options, opts SweepOptions) (*SweepResult, error) {
	start := time.Now()
	sr := &SweepResult{Warm: true}
	if opts.MaxT < 1 {
		opts.MaxT = 1
	}
	for T := 1; T <= opts.MaxT; T++ {
		hctx, span := telemetry.StartSpan(ctx, "sweep.horizon")
		span.SetAttrs(telemetry.Int("t", int64(T)))
		res, warm, err := solveHorizon(hctx, info, sess, cold, opts.Mode, T)
		if err != nil && sess != nil && (err == ErrClosed || err == ErrHorizon) {
			// Mid-sweep eviction (or a capacity mismatch): degrade to cold
			// for this and every remaining horizon.
			sess = nil
			res, warm, err = solveHorizon(hctx, info, nil, cold, opts.Mode, T)
		}
		if err != nil {
			span.SetAttrs(telemetry.String("error", err.Error()))
			span.End()
			return nil, err
		}
		v := Verdict{
			T: T, Status: res.Status, Duration: res.Duration,
			Warm: warm, Conflicts: res.SatStats.Conflicts,
		}
		if !warm {
			sr.Warm = false
		}
		sr.Verdicts = append(sr.Verdicts, v)
		sr.Final = res
		span.SetAttrs(
			telemetry.String("status", res.Status.String()),
			telemetry.Bool("warm", warm))
		span.End()
		if opts.OnVerdict != nil {
			opts.OnVerdict(v)
		}
		if res.Trace != nil {
			sr.FoundAt = T
			break
		}
		if res.Status == smtbe.Unknown {
			// A budget/deadline stop at this horizon would also stop every
			// deeper (harder) horizon; report rather than burn the rest.
			break
		}
	}
	sr.Duration = time.Since(start)
	return sr, nil
}

// solveHorizon answers one horizon, warm when a session is available.
func solveHorizon(ctx context.Context, info *typecheck.Info, sess *Session, cold smtbe.Options, mode smtbe.Mode, T int) (*smtbe.Result, bool, error) {
	if sess != nil {
		res, err := sess.Solve(ctx, Query{Mode: mode, T: T})
		if err != nil {
			return nil, true, err
		}
		return res, true, nil
	}
	cold.Mode = mode
	cold.IR.T = T
	res, err := smtbe.CheckContext(ctx, info, cold)
	if err != nil {
		return nil, false, err
	}
	return res, false, nil
}
