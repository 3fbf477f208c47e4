// Package smtbe is Buffy's SMT back-end: it plays the role Z3 plays for
// FPerf (§4 "Back-end for Z3 and FPerf"). A Buffy program is unrolled over
// a bounded horizon by the ir package and the resulting constraints are
// decided by this repository's own solver. Two query modes cover the
// paper's use cases:
//
//   - Verify: do the assert() statements hold on every execution allowed
//     by the assume() statements? A Sat answer yields a counterexample
//     input-traffic trace.
//   - Witness: is there an execution on which the asserts hold (and at
//     least one is reached)? This is the FPerf-style "can the query be
//     satisfied" direction — e.g. finding a trace where one queue takes
//     far more than its fair share.
//
// Every model the solver returns is decoded into a concrete Trace of input
// packets, which callers (tests, the interpreter) replay independently.
package smtbe

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

// EncodingFingerprint names the semantics of the bounded-horizon
// encoding this backend produces. It is folded into the durable result
// store's pipeline fingerprint: bump it whenever a change to the
// unrolling, the constraint shapes, or the trace decoding could alter
// the answer to any query, so stored results from the old encoding are
// invalidated rather than served. A change to the shape of the gates
// that keeps the value of every term under every assignment (a smaller
// Tseitin gate, say) needs no bump: it can change which witness a query
// returns, but never its verdict.
const EncodingFingerprint = "bmc-unroll-v1"

// Mode selects the query direction.
type Mode int

// Query modes.
const (
	// Verify checks that asserts hold on all executions.
	Verify Mode = iota
	// Witness searches for an execution where all reached asserts hold and
	// at least one assert is reached.
	Witness
)

func (m Mode) String() string {
	if m == Witness {
		return "witness"
	}
	return "verify"
}

// Status is the analysis outcome.
type Status int

// Outcomes. For Verify: Holds / CounterexampleFound. For Witness:
// WitnessFound / NoWitness.
const (
	Unknown Status = iota
	Holds
	CounterexampleFound
	WitnessFound
	NoWitness
)

func (s Status) String() string {
	switch s {
	case Holds:
		return "holds"
	case CounterexampleFound:
		return "counterexample"
	case WitnessFound:
		return "witness"
	case NoWitness:
		return "no-witness"
	}
	return "unknown"
}

// PacketEvent is one concrete arriving packet in a trace.
type PacketEvent struct {
	Step   int
	Buffer string
	Fields []int64
	Bytes  int64
}

// HavocEvent is the concrete value a havoc variable took, in program
// execution order within its step.
type HavocEvent struct {
	Step  int
	Name  string
	Value int64
	Bool  bool // the variable is boolean; Value is 0/1
}

// Trace is a concrete execution: the input traffic plus observed state.
type Trace struct {
	T       int
	Packets []PacketEvent
	// Havocs lists havoc values in the order the havoc statements
	// executed (the order ir recorded them).
	Havocs []HavocEvent
	// Vars[t][name] is the value of each global/monitor at the end of
	// step t (bools are 0/1).
	Vars []map[string]int64
	// Backlogs[t][buffer] is each buffer's packet backlog at end of step t.
	Backlogs []map[string]int64
	// Dropped[t][buffer] is each buffer's cumulative drop count.
	Dropped []map[string]int64
}

// String renders the trace compactly for logs and error messages.
func (tr *Trace) String() string {
	s := fmt.Sprintf("trace over %d steps:\n", tr.T)
	for t := 0; t < tr.T; t++ {
		s += fmt.Sprintf("  step %d: arrivals", t)
		any := false
		for _, p := range tr.Packets {
			if p.Step == t {
				s += fmt.Sprintf(" %s<-flow%d", p.Buffer, p.Fields[0])
				any = true
			}
		}
		if !any {
			s += " (none)"
		}
		s += "\n"
	}
	return s
}

// Result is the outcome of a Check.
type Result struct {
	Status   Status
	Mode     Mode
	Trace    *Trace // set when Status is CounterexampleFound or WitnessFound
	Compiled *ir.Compiled
	Solver   *solver.Solver
	SatStats sat.Stats
	Duration time.Duration
	// Stop explains an Unknown status: which resource budget was
	// exhausted, or that the deadline/cancellation fired. sat.StopNone
	// for conclusive answers.
	Stop sat.StopReason
	// Encoding sizes as the search starts, for scalability experiments.
	NumClauses int
	NumVars    int
	// Tier names the analysis tier that produced the answer: "" or "smt"
	// for a solver run, "static" when the pre-solve static analyzer
	// (internal/lang/sema) decided the query without solving.
	Tier string
}

// Options configures a Check.
type Options struct {
	IR     ir.Options
	Solver solver.Options
	Mode   Mode
}

// Check compiles and analyses the program.
func Check(info *typecheck.Info, opts Options) (*Result, error) {
	return CheckContext(context.Background(), info, opts)
}

// CheckContext is Check with cooperative cancellation: when ctx is
// cancelled or its deadline passes, the in-flight CDCL search aborts and
// the result comes back with Status Unknown alongside ctx.Err().
func CheckContext(ctx context.Context, info *typecheck.Info, opts Options) (*Result, error) {
	start := time.Now()
	e, err := EncodeContext(ctx, info, opts)
	if err != nil {
		return nil, err
	}
	return Answer(ctx, e.S, e.Mode, e.C, &e.mu, start)
}

// Encoded is a compiled, bit-blasted query ready to be solved — possibly
// several times under different search heuristics. The portfolio layer
// encodes once and forks the solver per configuration, so the heavy
// compile+bitblast phase is paid once per race rather than once per
// config.
type Encoded struct {
	Mode Mode
	C    *ir.Compiled
	// S is the solver holding the encoding. Solve it at most once (or use
	// SolveContext, which forks and leaves it untouched).
	S *solver.Solver
	// mu serializes model snapshots and trace extraction: forks share the
	// parent's term builder, which trace decoding appends to.
	mu sync.Mutex
}

// EncodeContext compiles the program and asserts the query constraints,
// stopping just before the solve.
func EncodeContext(ctx context.Context, info *typecheck.Info, opts Options) (*Encoded, error) {
	ectx, esp := telemetry.StartSpan(ctx, "encode")
	defer esp.End()
	s := solver.New(opts.Solver)
	c, err := ir.CompileContext(ectx, info, s.Builder(), opts.IR)
	if err != nil {
		return nil, err
	}
	query, err := QueryTerms(c, opts.Mode, len(c.Steps))
	if err != nil {
		return nil, err
	}
	bl := Blaster{S: s}
	if err := bl.Assert(ectx, slices.Concat(c.Assumes, query)); err != nil {
		return nil, err
	}
	return &Encoded{Mode: opts.Mode, C: c, S: s}, nil
}

// SolveContext searches the encoded query under the given CDCL heuristics
// on a fork of the encoding solver, leaving the encoding reusable for
// further solves. SolveContext is safe to call from concurrent goroutines;
// the searches race freely and only model decoding serializes.
func (e *Encoded) SolveContext(ctx context.Context, search sat.Options) (*Result, error) {
	start := time.Now()
	return Answer(ctx, e.S.Fork(search), e.Mode, e.C, &e.mu, start)
}

// QueryTerms returns the mode's query over the assert instances of steps
// 0..k-1: the violation for Verify; "every reached assert holds" and "one
// is reached" for Witness. A cold encoding asserts each term; a warm
// session assumes their conjunction. It fails when those steps reach no
// assert.
func QueryTerms(c *ir.Compiled, mode Mode, k int) ([]*term.Term, error) {
	if !slices.ContainsFunc(c.Asserts, func(a ir.AssertInst) bool { return a.Step < k }) {
		return nil, fmt.Errorf("smtbe: program %s has no assert() — nothing to check", c.Info.Prog.Name)
	}
	if mode == Witness {
		return []*term.Term{c.AssertHoldsUpTo(k), c.AssertReachedUpTo(k)}, nil
	}
	return []*term.Term{c.ViolationUpTo(k)}, nil
}

// Blaster bit-blasts constraints into one solver, each batch under a
// "bitblast" span. The span's clauses and vars counters are the solver's
// growth since the previous span. The reading starts at zero, so the
// first span counts what solver.New allocated (the constant-true var)
// and a solver's spans sum to its size when the last one ended.
type Blaster struct {
	S             *solver.Solver
	clauses, vars int
}

// Assert asserts terms in order, checking ctx between them so blasting
// large constraints stays cancellable. An empty batch opens no span.
func (bl *Blaster) Assert(ctx context.Context, terms []*term.Term) error {
	if len(terms) == 0 {
		return nil
	}
	_, span := telemetry.StartSpan(ctx, "bitblast")
	defer span.End()
	for _, t := range terms {
		if err := ctx.Err(); err != nil {
			return err
		}
		bl.S.Assert(t)
	}
	clauses, vars := bl.S.NumClauses(), bl.S.NumVars()
	span.SetAttrs(
		telemetry.Count("clauses", int64(clauses-bl.clauses)),
		telemetry.Count("vars", int64(vars-bl.vars)))
	bl.clauses, bl.vars = clauses, vars
	return nil
}

// Answer checks s under the assumptions and reads the outcome as a Result
// for mode over c: the status, the stop reason of an Unknown, the check's
// own search effort, the encoding's size and, on Sat, the trace decoded
// from c. mu serializes the model snapshot and decoding among solvers
// that share one term builder; nil when no other solver does. Duration
// counts from start, so callers fold their encode time into it. An
// Unknown caused by ctx comes back with ctx's error.
func Answer(ctx context.Context, s *solver.Solver, mode Mode, c *ir.Compiled, mu *sync.Mutex, start time.Time, assumptions ...*term.Term) (*Result, error) {
	// The size is read before the check: a warm check blasts its
	// assumptions as it starts, and the next bitblast span counts them.
	res := &Result{Mode: mode, Compiled: c, Solver: s, NumClauses: s.NumClauses(), NumVars: s.NumVars()}
	outcome := s.CheckContextNoModel(ctx, assumptions...)
	res.SatStats = s.Effort()
	switch {
	case outcome == solver.Unknown:
		res.Status = Unknown
		res.Stop = s.StopReason()
	case outcome == solver.Sat && mode == Verify:
		res.Status = CounterexampleFound
	case outcome == solver.Unsat && mode == Verify:
		res.Status = Holds
	case outcome == solver.Sat && mode == Witness:
		res.Status = WitnessFound
	default:
		res.Status = NoWitness
	}
	if outcome == solver.Sat {
		if mu != nil {
			mu.Lock()
		}
		s.SnapshotModel()
		res.Trace = ExtractTrace(c, s)
		if mu != nil {
			mu.Unlock()
		}
	}
	res.Duration = time.Since(start)
	if res.Status == Unknown && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// ExtractTrace decodes the solver model into a concrete trace.
func ExtractTrace(c *ir.Compiled, s *solver.Solver) *Trace {
	tr := &Trace{T: len(c.Steps)}
	for _, a := range c.Arrivals {
		if !s.BoolValue(a.Valid) {
			continue
		}
		ev := PacketEvent{Step: a.Step, Buffer: a.Buffer, Bytes: s.IntValue(a.Bytes)}
		for _, f := range a.Fields {
			ev.Fields = append(ev.Fields, s.IntValue(f))
		}
		tr.Packets = append(tr.Packets, ev)
	}
	for _, h := range c.Havocs {
		ev := HavocEvent{Step: h.Step, Name: h.Name}
		if h.Var.Sort() == term.Bool {
			ev.Bool = true
			if s.BoolValue(h.Var) {
				ev.Value = 1
			}
		} else {
			ev.Value = s.IntValue(h.Var)
		}
		tr.Havocs = append(tr.Havocs, ev)
	}
	sort.SliceStable(tr.Packets, func(i, j int) bool {
		if tr.Packets[i].Step != tr.Packets[j].Step {
			return tr.Packets[i].Step < tr.Packets[j].Step
		}
		return tr.Packets[i].Buffer < tr.Packets[j].Buffer
	})
	ctx := machineCtx(c, s)
	for _, snap := range c.Steps {
		vars := make(map[string]int64, len(snap.Vars))
		for name, t := range snap.Vars {
			v := s.Value(t)
			if v.Sort == term.Bool {
				if v.Bool {
					vars[name] = 1
				}
			} else {
				vars[name] = v.Int
			}
		}
		tr.Vars = append(tr.Vars, vars)
		bl := make(map[string]int64, len(snap.Buffers))
		dr := make(map[string]int64, len(snap.Buffers))
		for name, st := range snap.Buffers {
			bl[name] = s.IntValue(st.BacklogP(ctx))
			dr[name] = s.IntValue(st.Dropped())
		}
		tr.Backlogs = append(tr.Backlogs, bl)
		tr.Dropped = append(tr.Dropped, dr)
	}
	return tr
}

// machineCtx builds a side-effect-free buffer context for reading backlog
// terms out of snapshots (backlog queries never emit constraints).
func machineCtx(c *ir.Compiled, s *solver.Solver) *buffer.Ctx {
	return &buffer.Ctx{B: c.B, Assume: func(*term.Term) {}, Prefix: "trace"}
}

// FindMinHorizon runs iterative bounded deepening: it increases the
// horizon from 1 to maxT until the check produces a trace (a witness or a
// counterexample, per the mode), returning that result and the horizon it
// appeared at. When no horizon up to maxT yields a trace, the last result
// and maxT are returned. This is the standard BMC usage loop — the paper's
// bounded tools leave picking T to the user; this automates the search.
func FindMinHorizon(info *typecheck.Info, opts Options, maxT int) (*Result, int, error) {
	var last *Result
	for T := 1; T <= maxT; T++ {
		o := opts
		o.IR.T = T
		res, err := Check(info, o)
		if err != nil {
			return nil, 0, err
		}
		last = res
		if res.Trace != nil {
			return res, T, nil
		}
	}
	return last, maxT, nil
}
