// Package solver provides the user-facing SMT interface: assert boolean
// terms, check satisfiability, extract models. It plays the role Z3's API
// plays for FPerf — but implemented entirely on this repository's
// bit-blasting and CDCL SAT substrate.
//
// The solver is incremental in the "assert more, check again" direction:
// each Check reuses all clauses (including learnt clauses) from previous
// checks. Check also takes assumption terms, which it solves under without
// committing them — the workhorse of the Houdini engine, the Dafny-style
// verifier and warm sessions. A check's only wall-clock bound is its
// context's deadline.
package solver

import (
	"context"
	"slices"

	"buffy/internal/smt/bitblast"
	"buffy/internal/smt/cnf"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

// Result is the outcome of a Check.
type Result int

// Check outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Options configures a Solver.
type Options struct {
	// Width is the two's-complement bit width for integers.
	// Zero means bitblast.DefaultWidth.
	Width int
	// MaxConflicts bounds each Check; zero means unlimited.
	MaxConflicts int64
	// MaxPropagations bounds each Check's unit propagations (the closest
	// deterministic proxy for a CPU budget); zero means unlimited.
	MaxPropagations int64
	// MaxLearntBytes bounds the estimated learnt-clause memory per Check;
	// zero means unlimited.
	MaxLearntBytes int64
	// Search configures the CDCL heuristics (restart schedule, VSIDS
	// decay, polarity, random branching, learnt-DB limits). The zero
	// value is the classic configuration; the portfolio layer races
	// diversified Search settings against each other.
	Search sat.Options
	// Progress, when non-nil, receives live search-effort counters from
	// every Check. The service attaches one per job so in-flight solves
	// can be polled; forks inherit it, so a portfolio race aggregates all
	// configs' effort into the same Progress.
	Progress *sat.Progress
}

// Solver is an incremental SMT solver over booleans and bounded integers.
type Solver struct {
	b    *term.Builder
	sat  *sat.Solver
	bl   *bitblast.Blaster
	opts Options

	asserted []*term.Term
	unsat    bool // top-level inconsistency detected during blasting

	// blasted is the solver's size when the last bitblast span ended.
	blasted struct{ clauses, vars, terms int }

	// effort is the last check's work: the Stats since the previous check
	// ended on searched, so the checks on one solver sum to its lifetime.
	effort, searched sat.Stats

	// model holds variable values snapshotted at the last Sat result.
	// Snapshotting (rather than lazily reading SAT literals) keeps Value
	// safe for terms that were never blasted: they are evaluated
	// structurally over the snapshot, by eval, whose cache belongs to
	// this snapshot alone.
	model term.Assignment
	eval  *term.Evaluator
}

// New returns a Solver with a fresh term builder.
func New(opts Options) *Solver {
	if opts.Width == 0 {
		opts.Width = bitblast.DefaultWidth
	}
	s := &Solver{b: term.NewBuilder(), opts: opts}
	s.sat = sat.NewWithOptions(opts.Search)
	s.bl = bitblast.New(opts.Width, s.sat)
	return s
}

// Builder returns the solver's term builder. All terms asserted must come
// from this builder.
func (s *Solver) Builder() *term.Builder { return s.b }

// Fork returns a solver over the same asserted problem searching under
// different CDCL heuristics: the CNF is cloned (problem clauses and
// top-level facts, not learnt clauses) and the bit-blasting caches are
// copied, so the expensive encoding is shared rather than redone. Forks
// exist for portfolio racing — they may Check and read models, but must
// not Assert, and forking is only safe while neither the parent nor any
// fork is mid-Check. Because forks share the parent's term builder,
// concurrent forks must serialize SnapshotModel and model reads (see
// CheckContextNoModel).
func (s *Solver) Fork(search sat.Options) *Solver {
	opts := s.opts
	opts.Search = search
	f := &Solver{b: s.b, opts: opts, asserted: s.asserted, unsat: s.unsat}
	f.sat = s.sat.CloneProblem(search)
	f.bl = s.bl.Fork(f.sat)
	return f
}

// Width returns the integer bit width.
func (s *Solver) Width() int { return s.opts.Width }

// SetProgress replaces the live-progress sink used by subsequent checks.
// A warm session answers queries for many jobs on one solver; each query
// attaches the requesting job's Progress for its duration. Not safe to
// call while a check is in flight.
func (s *Solver) SetProgress(p *sat.Progress) { s.opts.Progress = p }

// Assert adds a boolean term to the assertion set.
func (s *Solver) Assert(t *term.Term) {
	s.asserted = append(s.asserted, t)
	if t == s.b.False() {
		s.unsat = true
		return
	}
	s.bl.Assert(t)
}

// AssertAll asserts terms in order under one "bitblast" span, checking ctx
// before each so blasting large constraints stays cancellable. The span's
// clauses, vars and terms counters are the solver's growth since the
// previous span ended. The reading starts at zero, so the first span
// counts what New allocated (the constant-true var), and a solver's spans
// sum to its size when the last one ended. A check that blasts new
// assumption terms counts them on a span of its own. An empty batch opens
// no span.
func (s *Solver) AssertAll(ctx context.Context, terms []*term.Term) error {
	if len(terms) == 0 {
		return nil
	}
	_, span := telemetry.StartSpan(ctx, "bitblast")
	defer span.End()
	for _, t := range terms {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.Assert(t)
	}
	s.countBlasted(span)
	return nil
}

// countBlasted sets span's clauses, vars and terms counters to the
// solver's growth since the previous bitblast span ended.
func (s *Solver) countBlasted(span *telemetry.Span) {
	clauses, vars, blasted := s.NumClauses(), s.NumVars(), s.NumBlastedTerms()
	span.SetAttrs(
		telemetry.Count("clauses", int64(clauses-s.blasted.clauses)),
		telemetry.Count("vars", int64(vars-s.blasted.vars)),
		telemetry.Count("terms", int64(blasted-s.blasted.terms)))
	s.blasted.clauses, s.blasted.vars, s.blasted.terms = clauses, vars, blasted
}

// Assertions returns the asserted terms in order.
func (s *Solver) Assertions() []*term.Term { return s.asserted }

// Check decides satisfiability of the asserted set together with the
// given boolean terms, without adding them permanently, and snapshots the
// model on Sat. The SAT search aborts (returning Unknown) soon after ctx
// is cancelled or its deadline passes.
func (s *Solver) Check(ctx context.Context, assumptions ...*term.Term) Result {
	return s.checkAssuming(ctx, true, assumptions...)
}

// CheckContextNoModel is Check without the automatic model snapshot after
// a Sat result: the caller invokes SnapshotModel itself before reading
// values. Portfolio forks need this split because they share one term
// builder — the search phases run concurrently, but the snapshot (which
// walks the shared builder's variables) must be serialized by the caller.
func (s *Solver) CheckContextNoModel(ctx context.Context, assumptions ...*term.Term) Result {
	return s.checkAssuming(ctx, false, assumptions...)
}

func (s *Solver) checkAssuming(ctx context.Context, snapshot bool, assumptions ...*term.Term) Result {
	s.effort = sat.Stats{}
	if s.unsat {
		return Unsat
	}
	if slices.Contains(assumptions, s.b.False()) {
		return Unsat
	}
	lits := make([]cnf.Lit, 0, len(assumptions))
	// Assumptions not blasted yet grow the CNF, and a bitblast span counts
	// that growth as AssertAll counts its own.
	var blast *telemetry.Span
	if slices.ContainsFunc(assumptions, func(a *term.Term) bool { return a != s.b.True() && !s.bl.Encoded(a) }) {
		_, blast = telemetry.StartSpan(ctx, "bitblast")
	}
	for _, a := range assumptions {
		if a != s.b.True() {
			lits = append(lits, s.bl.Bool(a))
		}
	}
	if blast != nil {
		s.countBlasted(blast)
		blast.End()
	}
	lim := sat.Limits{
		MaxConflicts:    s.opts.MaxConflicts,
		MaxPropagations: s.opts.MaxPropagations,
		MaxLearntBytes:  s.opts.MaxLearntBytes,
		Cancel:          ctx.Done(),
		Progress:        s.opts.Progress,
	}
	lim.Deadline, _ = ctx.Deadline()
	_, span := telemetry.StartSpan(ctx, "search")
	res := s.sat.SolveLimited(lim, lits...)
	if s.sat.StopReason() == sat.StopDeadline {
		// The search read the clock past ctx's deadline, perhaps before
		// ctx's own timer fired; wait for it so callers see ctx.Err().
		<-ctx.Done()
	}
	after := s.sat.Stats()
	d := after.Sub(s.searched)
	s.effort, s.searched = d, after
	span.SetAttrs(
		telemetry.String("result", res.String()),
		telemetry.Count("conflicts", d.Conflicts),
		telemetry.Count("decisions", d.Decisions),
		telemetry.Count("propagations", d.Propagations),
		telemetry.Count("learnt", d.Learnt),
		telemetry.Count("restarts", d.Restarts))
	span.End()
	switch res {
	case sat.Sat:
		if snapshot {
			s.SnapshotModel()
		}
		return Sat
	case sat.Unsat:
		return Unsat
	default:
		return Unknown
	}
}

// SnapshotModel publishes the model of the last Sat result for Value
// reads. Check calls it automatically; it is exported for
// CheckContextNoModel callers, which defer it. It reads every builder
// variable's value out of the SAT assignment. Variables that never
// reached the SAT solver read as 0/false, which is a legal completion
// since they are unconstrained; reading them through the blaster would
// give each one SAT variables for good.
func (s *Solver) SnapshotModel() {
	m := make(term.Assignment, 64)
	for _, v := range s.b.Vars() {
		switch {
		case !s.bl.Encoded(v):
			m[v] = term.Value{Sort: v.Sort()} // 0 or false
		case v.Sort() == term.Bool:
			m[v] = term.BoolValue(s.bl.BoolValue(v))
		default:
			m[v] = term.IntValue(s.bl.IntValue(v))
		}
	}
	s.model = m
	s.eval = term.NewEvaluator(m, s.opts.Width)
}

// BoolValue returns the model value of a boolean term after Sat. The term
// is evaluated over the snapshotted variable assignment, so any term built
// from this solver's builder may be queried, whether or not it was asserted.
func (s *Solver) BoolValue(t *term.Term) bool { return s.Value(t).Bool }

// IntValue returns the model value of an integer term after Sat.
func (s *Solver) IntValue(t *term.Term) int64 { return s.Value(t).Int }

// Value returns the model value of t after Sat.
func (s *Solver) Value(t *term.Term) term.Value {
	if s.eval == nil {
		panic("solver: Value called before a Sat result")
	}
	return s.eval.Eval(t)
}

// Model returns the values of all variables created in the builder as of
// the last Sat result, suitable for term.Eval-based validation.
func (s *Solver) Model() term.Assignment { return s.model }

// Stats returns the underlying SAT search statistics.
func (s *Solver) Stats() sat.Stats { return s.sat.Stats() }

// Effort returns the last check's work, the counters its search span
// records. A warm session re-solves one solver, so it reports this, not
// the lifetime Stats.
func (s *Solver) Effort() sat.Stats { return s.effort }

// StopReason reports why the last Check returned Unknown (which resource
// budget fired, the deadline, or cancellation); sat.StopNone otherwise.
func (s *Solver) StopReason() sat.StopReason { return s.sat.StopReason() }

// NumClauses returns the number of problem clauses blasted so far.
func (s *Solver) NumClauses() int { return s.sat.NumClauses() }

// NumVars returns the number of SAT variables allocated so far.
func (s *Solver) NumVars() int { return s.sat.NumVarsAllocated() }

// Clauses returns the CNF the solver holds, as sat's ProblemClauses does:
// the top-level facts, then the problem clauses in the order blasting
// added them. Two encodings with equal Clauses and NumVars are the same
// SAT problem, variable for variable.
func (s *Solver) Clauses() []cnf.Clause { return s.sat.ProblemClauses() }

// NumBlastedTerms returns the number of distinct terms bit-blasted so far.
func (s *Solver) NumBlastedTerms() int { return s.bl.NumTerms() }
