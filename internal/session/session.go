// Package session implements warm solver sessions: a compiled machine and
// an incremental solver kept alive across queries, answering a whole
// family of same-program requests by assumption-based re-solve.
//
// A Session unrolls the program once with a symbolic horizon
// (ir.Options.SymbolicT): the builtin T evaluates to a fresh integer
// variable instead of a constant, so the horizon-k query is just two
// retractable assumptions — TVar == k plus the mode's query term over the
// assert instances of steps 0..k-1 — on one shared encoding. Nothing
// query-specific is ever asserted permanently, which means:
//
//   - learnt clauses survive across queries (they are implied by the
//     problem clauses alone, so they stay valid whatever is assumed next);
//   - one session serves Verify and Witness, any horizon up to its
//     capacity, and caller-supplied extra constraints (workload bounds),
//     in any order;
//   - the unrolling deepens lazily, so a sweep from 1..maxT pays each
//     step's compilation exactly once.
//
// Programs that use T in a compile-time constant position (loop bounds,
// array sizes — the encoding's shape depends on T there) cannot share one
// encoding; New reports ErrConstHorizon and callers fall back to cold
// per-horizon solves. ScanHorizon makes that routing decision.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// Errors reported by Session entry points. Callers treat all three as
// "this session cannot answer; solve cold" signals rather than failures.
var (
	// ErrConstHorizon: the program uses T in a constant position, so one
	// symbolic-T encoding cannot serve multiple horizons.
	ErrConstHorizon = errors.New("session: program uses T in a constant position; horizons cannot share one encoding")
	// ErrClosed: the session was evicted/closed; the holder should
	// degrade to cold solves.
	ErrClosed = errors.New("session: closed")
	// ErrHorizon: the requested horizon exceeds the session's capacity
	// (buffer sizes were fixed for the capacity horizon at build time).
	ErrHorizon = errors.New("session: horizon exceeds session capacity")
)

// Options configures a Session.
type Options struct {
	// IR configures compilation. IR.T is the session's capacity: the
	// maximum horizon it will ever answer (capacity heuristics like
	// output buffer sizing are fixed from it, so all horizons share
	// shapes). IR.SymbolicT is set by New.
	IR ir.Options
	// Solver configures the underlying incremental solver, including the
	// per-query search budgets. These are fixed for the session's
	// lifetime — a request with different solver knobs must not share
	// this session (the service keys its pool on all of them).
	Solver solver.Options
}

// Query is one assumption-based request against a warm session.
type Query struct {
	// Mode is the query direction (Verify or Witness).
	Mode smtbe.Mode
	// T is the horizon, 1..capacity.
	T int
	// Extra adds retractable per-query constraints (e.g. tweaked
	// workload bounds) as assumptions. Terms must come from Builder().
	Extra []*term.Term
	// Progress, when non-nil, receives live search counters for this
	// query only (the service attaches the requesting job's).
	Progress *sat.Progress
}

// Session is a warm solver session. All methods are safe for concurrent
// use; queries serialize on an internal lock (the solver is
// single-threaded), so concurrent holders simply queue.
type Session struct {
	mu   sync.Mutex
	info *typecheck.Info
	sv   *solver.Solver
	m    *ir.Machine
	opts Options

	steps    int // steps unrolled so far
	asserted int // semantic assumes asserted so far

	closed  atomic.Bool
	queries atomic.Int64
}

// New builds a warm session for the program with the given capacity
// (opts.IR.T). The encoding is built lazily: steps unroll on demand as
// queries need them. Returns ErrConstHorizon when the program's use of T
// forces per-horizon compilation.
func New(info *typecheck.Info, opts Options) (*Session, error) {
	if opts.IR.T < 1 {
		opts.IR.T = 1
	}
	if ir.ScanHorizon(info) == ir.HorizonConst {
		return nil, ErrConstHorizon
	}
	opts.IR.SymbolicT = true
	sv := solver.New(opts.Solver)
	m, err := ir.NewMachine(info, sv.Builder(), opts.IR)
	if err != nil {
		return nil, err
	}
	return &Session{info: info, sv: sv, m: m, opts: opts}, nil
}

// MaxT returns the session's capacity horizon.
func (s *Session) MaxT() int { return s.opts.IR.T }

// Queries returns how many queries the session has answered.
func (s *Session) Queries() int64 { return s.queries.Load() }

// Builder returns the session's term builder, for constructing Extra
// query assumptions.
func (s *Session) Builder() *term.Builder { return s.sv.Builder() }

// Close marks the session closed (pool eviction). A query already solving
// runs to completion; every later Solve returns ErrClosed. Close never
// blocks on an in-flight solve.
func (s *Session) Close() { s.closed.Store(true) }

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool { return s.closed.Load() }

// Footprint estimates the session's memory in bytes: the learnt-clause
// database plus the problem encoding. The pool charges this against its
// budget and re-reads it after queries, since the learnt DB grows as the
// session works.
func (s *Session) Footprint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.footprintLocked()
}

func (s *Session) footprintLocked() int64 {
	// ~48 bytes per problem clause (header + few literals) and ~16 per
	// SAT variable (assignment, activity, watch headers) — the same
	// order of estimate sat uses for learnt clauses.
	return s.sv.Stats().LearntBytes +
		int64(s.sv.NumClauses())*48 + int64(s.sv.NumVars())*16
}

// ensureLocked deepens the unrolling to k steps, asserting the new
// semantic constraints permanently (they define the machine's behavior
// and are mode- and horizon-independent).
func (s *Session) ensureLocked(ctx context.Context, k int) error {
	for s.steps < k {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.m.RunStep(s.steps); err != nil {
			return err
		}
		s.steps++
		assumes := s.m.Assumes()
		for ; s.asserted < len(assumes); s.asserted++ {
			s.sv.Assert(assumes[s.asserted])
		}
	}
	return nil
}

// Solve answers one query on the warm encoding. The horizon guard and
// the query term ride as assumptions, so nothing sticks to the solver
// and the next query — any mode, any horizon — reuses everything the
// search learnt.
func (s *Session) Solve(ctx context.Context, q Query) (*smtbe.Result, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if q.T < 1 {
		return nil, fmt.Errorf("session: horizon %d out of range", q.T)
	}
	if q.T > s.opts.IR.T {
		return nil, ErrHorizon
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: an eviction may have landed while a
	// previous holder's query had the session busy.
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.ensureLocked(ctx, q.T); err != nil {
		return nil, err
	}
	c := s.m.Result()
	n := 0
	for _, a := range c.Asserts {
		if a.Step < q.T {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("smtbe: program %s has no assert() — nothing to check", s.info.Prog.Name)
	}
	b := s.sv.Builder()
	var query *term.Term
	switch q.Mode {
	case smtbe.Witness:
		query = b.And(c.AssertHoldsUpTo(q.T), c.AssertReachedUpTo(q.T))
	default:
		query = c.ViolationUpTo(q.T)
	}
	assumptions := make([]*term.Term, 0, 2+len(q.Extra))
	assumptions = append(assumptions, b.Eq(s.m.TVar(), b.IntConst(int64(q.T))), query)
	assumptions = append(assumptions, q.Extra...)

	if q.Progress != nil {
		s.sv.SetProgress(q.Progress)
		defer s.sv.SetProgress(s.opts.Solver.Progress)
	}
	outcome := s.sv.CheckAssumingContext(ctx, assumptions...)
	s.queries.Add(1)

	ct := c.TruncatedTo(q.T)
	res := &smtbe.Result{
		Mode: q.Mode, Compiled: ct, Solver: s.sv,
		SatStats:   s.sv.Effort(),
		NumClauses: s.sv.NumClauses(), NumVars: s.sv.NumVars(),
	}
	switch {
	case outcome == solver.Unknown:
		res.Status = smtbe.Unknown
		res.Stop = s.sv.StopReason()
	case outcome == solver.Sat && q.Mode == smtbe.Verify:
		res.Status = smtbe.CounterexampleFound
	case outcome == solver.Unsat && q.Mode == smtbe.Verify:
		res.Status = smtbe.Holds
	case outcome == solver.Sat && q.Mode == smtbe.Witness:
		res.Status = smtbe.WitnessFound
	default:
		res.Status = smtbe.NoWitness
	}
	if outcome == solver.Sat {
		// The model covers the full unrolling; the truncated compilation
		// restricts extraction to the first q.T steps, so the trace never
		// reads the unconstrained tail.
		res.Trace = smtbe.ExtractTrace(ct, s.sv)
	}
	res.Duration = time.Since(start)
	if res.Status == smtbe.Unknown && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}
