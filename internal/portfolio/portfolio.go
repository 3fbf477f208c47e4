// Package portfolio races N diversified CDCL configurations on the same
// bounded analysis and returns the first conclusive (sat/unsat) answer,
// cooperatively cancelling the losers. It is the layer between Buffy's
// analysis back-ends and the solver stack: verify/witness queries all
// bottom out in one CDCL search whose latency is hostage to a single
// heuristic configuration's luck, and racing a diverse set turns that
// variance into speedup — the first-conclusive-answer latency is the
// minimum over the set. The expensive compile+bitblast phase is shared:
// the query is encoded once and every configuration searches a CNF fork
// of that encoding (solver.Fork), so a race costs N searches but only one
// encoding.
//
// Because every configuration decides the same formula, any two
// conclusive answers must agree; the runner cross-checks them and flags a
// disagreement as ErrDisagreement. For a from-scratch solver this doubles
// as a continuous differential test: a heuristic-dependent soundness bug
// surfaces as a disagreement in production rather than a silent wrong
// answer.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/sat"
	"buffy/internal/telemetry"
)

// ErrDisagreement means two configurations both reached a conclusive
// answer and the answers differ — a solver soundness bug, never a
// legitimate outcome. The caller must treat the whole analysis as failed.
var ErrDisagreement = errors.New("portfolio: conclusive configurations disagree")

// Options configures a portfolio run.
type Options struct {
	// N is how many diversified default configurations to race
	// (<= 0 means DefaultSize). Ignored when Configs is set.
	N int
	// Configs overrides the built-in config set.
	Configs []Config
	// Base is the analysis to run: program horizon and IR options, base
	// solver options (each config's fork replaces Solver.Search with its
	// own), and the query mode. Portfolio queries are Verify or Witness.
	Base smtbe.Options
}

func (o Options) configs() []Config {
	if len(o.Configs) > 0 {
		return o.Configs
	}
	return DefaultConfigs(o.N)
}

// ConfigRun is one configuration's outcome, reported for every config in
// the portfolio — winners and losers alike. A loser cancelled mid-search
// reports Status Unknown with the sat.Stats it had accumulated when it
// observed the cancellation.
type ConfigRun struct {
	Name     string
	Status   smtbe.Status
	Stats    sat.Stats
	Duration time.Duration
	Err      string
}

// Result is a portfolio outcome: the winning configuration's full
// analysis result plus per-config telemetry.
type Result struct {
	// Result is the winner's analysis result (or, with no conclusive
	// config, an arbitrary Unknown result for its stats). Nil only when
	// every config failed before producing a result.
	*smtbe.Result
	// Winner is the name of the first conclusive config ("" if none).
	Winner string
	// Runs reports every configuration, in portfolio order.
	Runs []ConfigRun
	// Disagreement is set when two conclusive configs differed; the
	// accompanying error wraps ErrDisagreement.
	Disagreement bool
	// WallClock is the portfolio's end-to-end time, including waiting
	// for cancelled losers to unwind.
	WallClock time.Duration
}

// encodeFn and solveFn are the two phases of a race — compile+bitblast
// once, then search per config on solver forks sharing that encoding.
// Test stubs replace them to script win/lose timing deterministically.
var (
	encodeFn = smtbe.EncodeContext
	solveFn  = func(ctx context.Context, enc *smtbe.Encoded, search sat.Options) (*smtbe.Result, error) {
		return enc.SolveContext(ctx, search)
	}
)

// conclusive reports whether a run produced a definite answer.
func conclusive(res *smtbe.Result, err error) bool {
	return err == nil && res != nil && res.Status != smtbe.Unknown
}

// CheckContext races the portfolio's configurations on the query and
// returns the first conclusive answer. Losing searches are cancelled
// cooperatively and observed to completion (their stats are collected)
// before the call returns. Cancelling ctx aborts every configuration.
func CheckContext(ctx context.Context, info *typecheck.Info, opts Options) (*Result, error) {
	cfgs := opts.configs()
	start := time.Now()

	// Encode once: compile + bitblast is the expensive, heuristic-free
	// phase, so every config races on a CNF fork of the same encoding
	// instead of redoing it N times.
	enc, err := encodeFn(ctx, info, opts.Base)
	if err != nil {
		return nil, err
	}

	runCtx, cancelLosers := context.WithCancel(ctx)
	defer cancelLosers()

	type outcome struct {
		idx int
		res *smtbe.Result
		err error
		dur time.Duration
		sp  *telemetry.Span
	}
	ch := make(chan outcome, len(cfgs))
	for i, cfg := range cfgs {
		go func(i int, cfg Config) {
			t0 := time.Now()
			cctx, sp := telemetry.StartSpan(runCtx, "portfolio:"+cfg.Name)
			res, err := runOne(cctx, enc, cfg)
			if sp != nil && res != nil {
				sp.SetAttrs(telemetry.String("status", res.Status.String()))
			}
			sp.End()
			ch <- outcome{i, res, err, time.Since(t0), sp}
		}(i, cfg)
	}

	// First conclusive answer wins; the rest are cancelled but still
	// awaited so their effort is accounted and their answers cross-checked.
	outs := make([]outcome, len(cfgs))
	winner := -1
	for n := 0; n < len(cfgs); n++ {
		o := <-ch
		outs[o.idx] = o
		if winner < 0 && conclusive(o.res, o.err) {
			winner = o.idx
			cancelLosers()
		}
	}

	runs := make([]ConfigRun, len(cfgs))
	var firstErr error
	for i, o := range outs {
		run := ConfigRun{Name: cfgs[i].Name, Duration: o.dur}
		if o.res != nil {
			run.Status = o.res.Status
			run.Stats = o.res.SatStats
		}
		// Cancellation of losers is the expected mechanism, not a failure.
		if o.err != nil && !errors.Is(o.err, context.Canceled) && !errors.Is(o.err, context.DeadlineExceeded) {
			run.Err = o.err.Error()
			if firstErr == nil {
				firstErr = o.err
			}
		}
		runs[i] = run
	}

	if winner >= 0 {
		// Annotate the winning config's span after the race settles
		// (SetAttrs on an ended span is allowed for exactly this).
		outs[winner].sp.SetAttrs(telemetry.Bool("winner", true))
		pr := &Result{
			Result:    outs[winner].res,
			Winner:    cfgs[winner].Name,
			Runs:      runs,
			WallClock: time.Since(start),
		}
		// Differential safety net: any other conclusive config must agree.
		for i, o := range outs {
			if i == winner || !conclusive(o.res, o.err) {
				continue
			}
			if o.res.Status != pr.Status {
				pr.Disagreement = true
				return pr, fmt.Errorf("%w: %s says %v, %s says %v",
					ErrDisagreement, cfgs[winner].Name, pr.Status, cfgs[i].Name, o.res.Status)
			}
		}
		return pr, nil
	}

	// No conclusive answer: surface the caller's cancellation, then any
	// real error (parse/compile failures hit every config identically),
	// then a budget-exhausted Unknown.
	pr := &Result{Runs: runs, WallClock: time.Since(start)}
	for _, o := range outs {
		if o.res != nil {
			pr.Result = o.res
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return pr, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return pr, nil
}

// runOne executes a single configuration's search, shielding the
// portfolio (and the service worker above it) from panics escaping the
// solver stack.
func runOne(ctx context.Context, enc *smtbe.Encoded, cfg Config) (res *smtbe.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("portfolio: config %s panicked: %v", cfg.Name, r)
		}
	}()
	// Stamp the portfolio label onto the search options so telemetry
	// (SearchReport per-config breakdowns) can attribute effort. Name is
	// not a heuristic; this cannot change the search.
	search := cfg.Search
	search.Name = cfg.Name
	return solveFn(ctx, enc, search)
}
