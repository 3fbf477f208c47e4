package core

import (
	"context"

	"buffy/internal/backend/smtbe"
	"buffy/internal/session"
)

// SweepOptions configures a horizon sweep (see Sweep).
type SweepOptions struct {
	// MaxT is the deepest horizon to try.
	MaxT int
	// Mode is the query direction for every horizon (default Verify).
	Mode smtbe.Mode
	// OnVerdict, when non-nil, receives each horizon's verdict as it
	// lands (the streaming hook).
	OnVerdict func(session.Verdict)
}

// NewSession builds a warm solver session for this program with capacity
// maxT, ready to answer assumption-based queries (any mode, any horizon
// up to maxT) on one shared encoding. Returns session.ErrConstHorizon
// when the program's use of T forces per-horizon compilation; callers
// then sweep cold. The analysis' Progress is intentionally not baked in:
// sessions outlive requests, so progress attaches per query.
func (p *Program) NewSession(a Analysis, maxT int) (*session.Session, error) {
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	iro.T = maxT
	so := a.solverOptions()
	so.Progress = nil
	return session.New(p.Info, session.Options{IR: iro, Solver: so})
}

// Sweep runs the minimal-horizon search on a fresh warm session: solve
// horizons 1..MaxT in order until one produces a trace, re-solving one
// warm encoding under per-horizon assumptions instead of N cold solves.
// Cancelling ctx aborts the in-flight horizon.
func (p *Program) Sweep(ctx context.Context, a Analysis, opts SweepOptions) (*session.SweepResult, error) {
	sess, err := p.NewSession(a, opts.MaxT)
	if err != nil && err != session.ErrConstHorizon {
		return nil, err
	}
	return p.SweepWithSession(ctx, sess, a, opts)
}

// SweepWithSession is Sweep over a caller-managed (possibly
// shared, possibly nil) session — the service's pooled entry point. A nil
// session sweeps cold; a session evicted mid-sweep degrades the remaining
// horizons to cold solves.
func (p *Program) SweepWithSession(ctx context.Context, sess *session.Session, a Analysis, opts SweepOptions) (*session.SweepResult, error) {
	if err := p.vetGate(ctx, a); err != nil {
		return nil, err
	}
	iro, err := a.irOptions()
	if err != nil {
		return nil, err
	}
	return session.Sweep(ctx, p.Info, sess, session.SweepOptions{
		MaxT:      opts.MaxT,
		Mode:      opts.Mode,
		OnVerdict: opts.OnVerdict,
		Backend:   smtbe.Options{IR: iro, Solver: a.solverOptions()},
		Progress:  a.Progress,
	})
}
