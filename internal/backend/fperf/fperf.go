// Package fperf implements Buffy's FPerf-style back-end (§4): instead of
// merely checking a query, it synthesizes a *workload* — a set of
// constraints on the input traffic — under which the query is guaranteed
// to hold on every execution. This is FPerf's headline capability ("FPerf
// can synthesize a set of input packet traffic sequences that satisfy a
// given query") reproduced with this repository's own solver.
//
// The synthesis is guess-and-check (the approach §5 advocates):
//
//  1. Find one concrete witness execution of the query (a model).
//  2. Abstract the witness into a fully-concrete candidate workload: one
//     arrival-count atom per (step, input buffer).
//  3. Generalize greedily: try to drop each atom, then to relax equalities
//     into one-sided bounds; a candidate survives only if the solver
//     proves "workload ⇒ query" (the check), and remains non-vacuous
//     (some traffic satisfies it).
//
// The result is a human-readable workload like FPerf's synthesized traffic
// patterns — e.g. "queue 0 receives >= 1 packet in every step; queue 1
// receives >= 2 packets at step 0".
package fperf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

// Op is an atom's comparison operator.
type Op int

// Atom operators.
const (
	OpEq Op = iota
	OpGe
	OpLe
)

func (o Op) String() string {
	switch o {
	case OpGe:
		return ">="
	case OpLe:
		return "<="
	}
	return "=="
}

// Atom constrains the number of packets arriving at one input buffer in
// one step.
type Atom struct {
	Buffer string
	Step   int
	Op     Op
	K      int64
}

func (a Atom) String() string {
	return fmt.Sprintf("cnt(%s, t=%d) %v %d", a.Buffer, a.Step, a.Op, a.K)
}

// Workload is a conjunction of atoms.
type Workload []Atom

func (w Workload) String() string {
	if len(w) == 0 {
		return "true (any traffic)"
	}
	parts := make([]string, len(w))
	for i, a := range w {
		parts[i] = a.String()
	}
	return strings.Join(parts, " && ")
}

// Options configures synthesis.
type Options struct {
	IR     ir.Options
	Solver solver.Options
}

// Result is the synthesis outcome.
type Result struct {
	Found    bool
	Workload Workload
	// Inconclusive is set when a solver check returned Unknown (conflict
	// budget exhausted). A Found=false result with Inconclusive set means
	// "don't know", not a proof that no workload exists; a Found=true
	// result is still sound (every kept candidate passed definite checks)
	// but may be under-generalized.
	Inconclusive bool
	// Checks counts solver queries spent in generalization.
	Checks   int
	Duration time.Duration
	Compiled *ir.Compiled
}

// SynthesizeContext searches for a workload under which every execution
// satisfies the program's query (all reached asserts hold, at least one is
// reached). Each solver query aborts soon after ctx is cancelled and the
// whole synthesis returns ctx.Err().
func SynthesizeContext(ctx context.Context, info *typecheck.Info, opts Options) (*Result, error) {
	start := time.Now()
	ctx, ssp := telemetry.StartSpan(ctx, "synthesize")
	res := &Result{}
	defer func() {
		ssp.SetAttrs(
			telemetry.Int("checks", int64(res.Checks)),
			telemetry.Bool("found", res.Found))
		ssp.End()
	}()
	sv := solver.New(opts.Solver)
	c, err := ir.CompileContext(ctx, info, sv.Builder(), opts.IR)
	if err != nil {
		return nil, err
	}
	query, err := smtbe.QueryTerms(c, smtbe.Witness, len(c.Steps))
	if err != nil {
		return nil, err
	}
	if err := sv.AssertAll(ctx, c.Assumes); err != nil {
		return nil, err
	}
	b := sv.Builder()
	holds := b.And(query...)
	res.Compiled = c

	// check runs one solver query and reports whether it came back with the
	// wanted outcome. Unknown without a cancelled context means the conflict
	// budget ran out: the overall answer is then inconclusive, not definite.
	check := func(t *term.Term, want solver.Result) bool {
		res.Checks++
		cctx, csp := telemetry.StartSpan(ctx, "fperf.check")
		out := sv.Check(cctx, t)
		csp.SetAttrs(
			telemetry.Int("n", int64(res.Checks)),
			telemetry.String("result", out.String()))
		csp.End()
		if out == solver.Unknown && ctx.Err() == nil {
			res.Inconclusive = true
		}
		return out == want
	}

	// Step 1: find one witness.
	if !check(holds, solver.Sat) {
		res.Duration = time.Since(start)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		return res, nil // Unsat: query unreachable, no workload exists
	}

	// Step 2: abstract the witness into concrete per-(step,buffer) counts.
	counts := arrivalCounts(c, sv)
	var wl Workload
	for _, k := range sortedKeys(counts) {
		wl = append(wl, Atom{Buffer: k.buf, Step: k.step, Op: OpEq, K: counts[k]})
	}

	// The implication check: workload ⇒ query on all executions.
	implies := func(w Workload) bool {
		ant := w.Term(c)
		// Unsat(workload ∧ ¬holds) means the workload guarantees the query.
		if !check(b.And(ant, b.Not(holds)), solver.Unsat) {
			return false
		}
		// Non-vacuity: some traffic satisfies the workload (and the
		// program assumptions).
		return check(ant, solver.Sat)
	}

	if !implies(wl) {
		// The fully concrete workload must imply the query (it pins the
		// entire input); if not, nondeterminism beyond traffic (havocs)
		// can break the query and no traffic-only workload exists.
		res.Duration = time.Since(start)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		return res, nil
	}

	// Step 3a: drop atoms greedily.
	for i := 0; i < len(wl); {
		cand := append(append(Workload{}, wl[:i]...), wl[i+1:]...)
		if implies(cand) {
			wl = cand
		} else {
			i++
		}
	}
	// Step 3b: relax remaining equalities to one-sided bounds.
	for i := range wl {
		for _, op := range []Op{OpGe, OpLe} {
			cand := append(Workload{}, wl...)
			cand[i].Op = op
			if implies(cand) {
				wl = cand
				break
			}
		}
	}

	res.Duration = time.Since(start)
	// Cancellation mid-generalization makes every implies() check fail
	// fast; the candidate may be under-generalized, so report the abort
	// rather than a (valid but unpolished) workload.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.Found = true
	res.Workload = wl
	return res, nil
}

// Term renders the workload as a constraint over the compiled arrivals.
func (w Workload) Term(c *ir.Compiled) *term.Term {
	b := c.B
	parts := make([]*term.Term, 0, len(w))
	for _, a := range w {
		cnt := b.IntConst(0)
		for _, arr := range c.Arrivals {
			if arr.Buffer == a.Buffer && arr.Step == a.Step {
				cnt = b.Add(cnt, b.Ite(arr.Valid, b.IntConst(1), b.IntConst(0)))
			}
		}
		k := b.IntConst(a.K)
		switch a.Op {
		case OpGe:
			parts = append(parts, b.Ge(cnt, k))
		case OpLe:
			parts = append(parts, b.Le(cnt, k))
		default:
			parts = append(parts, b.Eq(cnt, k))
		}
	}
	return b.And(parts...)
}

type cntKey struct {
	step int
	buf  string
}

func arrivalCounts(c *ir.Compiled, sv *solver.Solver) map[cntKey]int64 {
	counts := make(map[cntKey]int64)
	for _, a := range c.Arrivals {
		k := cntKey{a.Step, a.Buffer}
		if _, ok := counts[k]; !ok {
			counts[k] = 0
		}
		if sv.BoolValue(a.Valid) {
			counts[k]++
		}
	}
	return counts
}

func sortedKeys(m map[cntKey]int64) []cntKey {
	out := make([]cntKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].step != out[j].step {
			return out[i].step < out[j].step
		}
		return out[i].buf < out[j].buf
	})
	return out
}
