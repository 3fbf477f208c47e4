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
//   - one session serves Verify and Witness and any horizon up to its
//     capacity, in any order;
//   - the unrolling deepens lazily, so a sweep from 1..maxT pays each
//     step's compilation exactly once.
//
// A warm query runs the cold path's code: ir's Unroll deepens the
// unrolling, the solver's AssertAll asserts the new constraints, and
// smtbe's QueryTerms and Answer pose the query and read its outcome, so a
// deepening query reports the same compile, bitblast and search spans as
// a cold solve.
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
	// this session. Every solver option is in the service's SessionKey;
	// a query's wall-clock bound is its ctx's deadline, which the
	// session never keeps.
	Solver solver.Options
}

// Query is one assumption-based request against a warm session.
type Query struct {
	// Mode is the query direction (Verify or Witness).
	Mode smtbe.Mode
	// T is the horizon, 1..capacity.
	T int
	// Progress, when non-nil, receives live search counters for this
	// query only (the service attaches the requesting job's).
	Progress *sat.Progress
}

// Session is a warm solver session. All methods are safe for concurrent
// use; queries serialize on an internal lock (the solver is
// single-threaded), so concurrent holders simply queue.
type Session struct {
	mu   sync.Mutex
	sv   *solver.Solver
	m    *ir.Machine
	opts Options

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
	return &Session{sv: sv, m: m, opts: opts}, nil
}

// MaxT returns the session's capacity horizon.
func (s *Session) MaxT() int { return s.opts.IR.T }

// Queries returns how many queries the session has answered.
func (s *Session) Queries() int64 { return s.queries.Load() }

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

// Solve answers one query on the warm encoding. Deepening the unrolling
// to the horizon asserts the new semantic constraints permanently (they
// define the machine's behavior and are mode- and horizon-independent).
// The horizon guard and the query ride as assumptions, so nothing
// query-specific sticks to the solver and the next query — any mode, any
// horizon — reuses everything the search learnt.
// A cancellation or a compile error part-way through a step closes the
// session: the step's state is half-built, so every later Solve returns
// ErrClosed.
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
	if err := s.m.Unroll(ctx, q.T); err != nil {
		if s.m.Interrupted() {
			// The machine stopped half-way through a step and can never
			// deepen again: close, so later queries solve cold.
			s.Close()
		}
		return nil, err
	}
	// The solver holds only the machine's assumes, so its assertion count
	// is how many of them are asserted already.
	if err := s.sv.AssertAll(ctx, s.m.Assumes()[len(s.sv.Assertions()):]); err != nil {
		return nil, err
	}
	c := s.m.Result()
	query, err := smtbe.QueryTerms(c, q.Mode, q.T)
	if err != nil {
		return nil, err
	}
	b := s.sv.Builder()
	all := b.And(query...)
	horizon := b.Eq(s.m.TVar(), b.IntConst(int64(q.T)))

	if q.Progress != nil {
		s.sv.SetProgress(q.Progress)
		defer s.sv.SetProgress(s.opts.Solver.Progress)
	}
	s.queries.Add(1)
	// The model covers the full unrolling; the truncated compilation
	// restricts extraction to the first q.T steps, so the trace never
	// reads the unconstrained tail. The session's lock already serializes
	// decoding.
	return smtbe.Answer(ctx, s.sv, q.Mode, c.TruncatedTo(q.T), nil, start, horizon, all)
}
