package dafny

import (
	"context"
	"slices"
	"time"

	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// VerifyOptions configures the mini annotation checker.
type VerifyOptions struct {
	IR     ir.Options
	Solver solver.Options
	// ExtraAssume returns caller-supplied constraints over the compiled
	// program, asserted alongside its assumes — typically a synthesized
	// workload, matching §6.1's "use assume statements to restrict [havoc
	// inputs] to FPerf's synthesized traffic pattern".
	ExtraAssume func(c *ir.Compiled) []*term.Term
}

// VCResult is the outcome of one verification condition (one assert
// instance), checked separately the way Dafny discharges assertions.
type VCResult struct {
	Step     int
	Pos      ir.Pos
	Holds    bool
	Unknown  bool
	Duration time.Duration
}

// VerifyResult aggregates a verification run — the measurement behind
// Figure 6 (verification time as a function of the horizon T under full
// unrolling and inlining).
type VerifyResult struct {
	Verified   bool
	VCs        []VCResult
	Duration   time.Duration
	NumClauses int
	NumVars    int
}

// Verify unrolls and inlines the program over opts.IR.T steps (the
// transformations §6.1 applies before handing the model to Dafny) and
// discharges every assert instance as a separate verification condition
// using this repository's solver as the underlying decision procedure.
// Cancelling ctx aborts the run with ctx's error.
func Verify(ctx context.Context, info *typecheck.Info, opts VerifyOptions) (*VerifyResult, error) {
	start := time.Now()
	sv := solver.New(opts.Solver)
	c, err := ir.CompileContext(ctx, info, sv.Builder(), opts.IR)
	if err != nil {
		return nil, err
	}
	assumes := c.Assumes
	if opts.ExtraAssume != nil {
		assumes = slices.Concat(assumes, opts.ExtraAssume(c))
	}
	if err := sv.AssertAll(ctx, assumes); err != nil {
		return nil, err
	}
	b := sv.Builder()
	res := &VerifyResult{Verified: true}
	for _, a := range c.Asserts {
		if a.Guard == b.False() {
			continue // unreachable instance: vacuously discharged
		}
		vcStart := time.Now()
		r := sv.Check(ctx, b.And(a.Guard, b.Not(a.Cond)))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.VCs = append(res.VCs, VCResult{Step: a.Step, Pos: a.Pos,
			Holds: r == solver.Unsat, Unknown: r == solver.Unknown, Duration: time.Since(vcStart)})
		res.Verified = res.Verified && r == solver.Unsat
	}
	res.Duration = time.Since(start)
	res.NumClauses, res.NumVars = sv.NumClauses(), sv.NumVars()
	return res, nil
}
