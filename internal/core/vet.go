package core

// The static analysis tier (DESIGN.md "Analysis tiers"): an always-on
// pre-solve gate in every query entry point (Check, Synthesize, Bound,
// Sweep). Before a query is compiled and bit-blasted, the sema abstract
// interpreter gets a few microseconds to decide it outright —
// contradictory workloads and trivially-true queries short-circuit here,
// and the solver is never constructed. (Assert-free programs are NOT
// short-circuited: the SMT backend's "nothing to check" input error is
// the established contract for those, and the gate preserves it.) The
// tier is sound by construction: over-approximate abstract
// interpretation can only answer in the directions where
// over-approximation proves the claim (Verify -> Holds, Witness ->
// NoWitness); anything needing a concrete execution falls through to
// the SMT tier.

import (
	"context"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/lang/sema"
	"buffy/internal/telemetry"
)

// SemaOptions derives the static-analyzer configuration from an
// Analysis, with the bounds the solver would encode.
func (a Analysis) SemaOptions() sema.Options {
	return sema.Options{T: a.T, Params: a.Params, Bounds: a.Bounds, Width: a.Width}
}

// Vet runs the static analyzer over the program with this analysis
// configuration and returns the full diagnostic report.
func (p *Program) Vet(a Analysis) *sema.Report {
	return sema.Analyze(p.Info, a.SemaOptions())
}

// vetSpan is the one pre-solve vet site: it runs the analyzer under a
// "vet" span, or returns nil when the context is already done (the
// solver path reports cancellation uniformly) or parameters are unbound
// (the ir path reports the missing binding as an error).
func (p *Program) vetSpan(ctx context.Context, a Analysis) *sema.Report {
	if ctx.Err() != nil {
		return nil
	}
	for _, name := range p.Info.Params {
		if _, ok := a.Params[name]; !ok {
			return nil
		}
	}
	_, span := telemetry.StartSpan(ctx, "vet")
	rep := p.Vet(a)
	span.SetAttrs(
		telemetry.Count("diags", int64(len(rep.Diags))),
		telemetry.Count("steps", rep.Steps),
		telemetry.String("verdict", rep.Verdict.Reason))
	span.End()
	return rep
}

// staticTier is the pre-solve gate. It returns a conclusive static
// result for the given query mode, or nil when the query needs a solver.
func (p *Program) staticTier(ctx context.Context, a Analysis, mode smtbe.Mode) *smtbe.Result {
	start := time.Now()
	rep := p.vetSpan(ctx, a)
	if rep == nil || rep.Verdict.Reason == sema.ReasonNoAsserts {
		// Let smtbe report its "program has no assert()" error; a silent
		// static Holds would mask a malformed query.
		return nil
	}
	v := rep.Verdict
	var status smtbe.Status
	switch {
	case mode == smtbe.Verify && v.Verify == "holds":
		status = smtbe.Holds
	case mode == smtbe.Witness && v.Witness == "no-witness":
		status = smtbe.NoWitness
	default:
		return nil
	}
	return &smtbe.Result{
		Status:   status,
		Mode:     mode,
		Duration: time.Since(start),
		Tier:     "static",
	}
}

// vetGate rejects programs whose static analysis produced error-severity
// diagnostics (contradictory assumptions, unusable horizon) before an
// expensive backend runs. Used by the backends that cannot otherwise
// consume a static verdict (workload synthesis, bound computation).
func (p *Program) vetGate(ctx context.Context, a Analysis) error {
	rep := p.vetSpan(ctx, a)
	if rep == nil || !rep.HasErrors() {
		return nil
	}
	var errDiags []sema.Diagnostic
	for _, d := range rep.Diags {
		if d.Severity == sema.Error {
			errDiags = append(errDiags, d)
		}
	}
	return &sema.VetError{Diags: errDiags}
}
