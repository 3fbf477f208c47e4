package netcalc

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"time"

	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

// ErrDisagreement is the hard failure of the differential harness: the SMT
// backend exhibited a concrete execution whose backlog or delay exceeds
// the analytical bound. Either the lowering or the min-plus algebra is
// unsound for this model — never ignore it (mirrors portfolio.ErrDisagreement).
var ErrDisagreement = errors.New("netcalc: analytical bound violated by an SMT witness")

// CrossCheckOptions configure the differential solve: the same compile
// knobs an smtbe run would use (T is the exhaustive horizon) plus solver
// search options.
type CrossCheckOptions struct {
	IR     ir.Options
	Solver solver.Options
}

// CrossCheckReport records a differential cross-check outcome.
type CrossCheckReport struct {
	// Checked is false when the bound is unbounded — nothing to dominate.
	Checked bool `json:"checked"`
	// Status: "dominated" (UNSAT: no execution up to horizon T beats the
	// bound), "disagreement" (SAT: a concrete witness exceeds it),
	// "unknown" (search budget exhausted), or "skipped-unbounded".
	Status string `json:"status"`
	// T is the exhaustively-checked horizon.
	T int `json:"t,omitempty"`
	// BacklogFloor is the integer threshold the SMT side tried to exceed:
	// a concrete backlog > floor(bound) would disprove domination.
	BacklogFloor int64 `json:"backlog_floor,omitempty"`
	// DelayFloor is the delay threshold, -1 when the model has no
	// departure clock to check delays against.
	DelayFloor int64 `json:"delay_floor,omitempty"`
	// Witness describes the violating execution on disagreement.
	Witness string `json:"witness,omitempty"`
	// Stop is the solver's stop reason when Status is "unknown".
	Stop string `json:"stop,omitempty"`
	// Duration is the differential solve wall-clock.
	Duration time.Duration `json:"duration_ns"`
}

// floorInt64 returns floor(r) for a non-negative rational bound.
func floorInt64(r *big.Rat) int64 {
	return new(big.Int).Div(r.Num(), r.Denom()).Int64()
}

// CrossCheck proves, at horizon T, that the analytical bounds dominate
// every concrete execution the SMT backend can produce: it asserts the
// program's assume()s plus "some step exceeds the bound" and expects
// UNSAT.
//
// Backlog: the victim's in-system packet count at any step — the sum of
// its path buffers' backlogs — must not exceed floor(Backlog). Delay: by
// the virtual-delay characterization, delay <= d iff the cumulative
// arrivals A(t) have departed by t+d, so the harness searches for a step t
// with A(t) > D(t+d), where D is the model's departure clock (a monitor or
// an accumulating sink buffer) and A(t) = path backlog + D(t).
//
// A SAT outcome returns ErrDisagreement (wrapped, with the witness); the
// report is attached to r.CrossCheck in every case.
func CrossCheck(ctx context.Context, info *typecheck.Info, r *Result, opts CrossCheckOptions) (*CrossCheckReport, error) {
	cctx, sp := telemetry.StartSpan(ctx, "netcalc.crosscheck")
	defer sp.End()
	start := time.Now()
	report := &CrossCheckReport{T: opts.IR.T, DelayFloor: -1}
	r.CrossCheck = report
	if !r.Bounded {
		report.Status = "skipped-unbounded"
		report.Duration = time.Since(start)
		return report, nil
	}
	report.Checked = true
	report.BacklogFloor = floorInt64(r.Backlog)

	sv := solver.New(opts.Solver)
	b := sv.Builder()
	c, err := ir.CompileContext(cctx, info, b, opts.IR)
	if err != nil {
		return report, err
	}
	bufCtx := &buffer.Ctx{B: c.B, Assume: func(*term.Term) {}, Prefix: "netcalc"}

	// pathBacklog(t): the victim's in-system packets at the end of step t.
	pathBacklog := func(t int) (*term.Term, error) {
		var sum *term.Term
		for _, name := range r.Spec.PathBuffers {
			st, ok := c.Steps[t].Buffers[name]
			if !ok {
				return nil, fmt.Errorf("netcalc: lowering names buffer %q absent from compiled program %s", name, r.Program)
			}
			bl := st.BacklogP(bufCtx)
			if sum == nil {
				sum = bl
			} else {
				sum = b.Add(sum, bl)
			}
		}
		if sum == nil {
			return nil, fmt.Errorf("netcalc: lowering for %s has no path buffers", r.Program)
		}
		return sum, nil
	}
	// departures(t): the victim's cumulative departure count after step t.
	departures := func(t int) (*term.Term, error) {
		if r.Spec.DepartureVar != "" {
			v, ok := c.Steps[t].Vars[r.Spec.DepartureVar]
			if !ok {
				return nil, fmt.Errorf("netcalc: lowering names monitor %q absent from compiled program %s", r.Spec.DepartureVar, r.Program)
			}
			return v, nil
		}
		st, ok := c.Steps[t].Buffers[r.Spec.DepartureSink]
		if !ok {
			return nil, fmt.Errorf("netcalc: lowering names sink %q absent from compiled program %s", r.Spec.DepartureSink, r.Program)
		}
		return st.BacklogP(bufCtx), nil
	}

	T := len(c.Steps)
	var viols []*term.Term
	backlogs := make([]*term.Term, T)
	for t := 0; t < T; t++ {
		pb, err := pathBacklog(t)
		if err != nil {
			return report, err
		}
		backlogs[t] = pb
		// Backlog violation: path backlog > floor(bound).
		viols = append(viols, b.Lt(b.IntConst(report.BacklogFloor), pb))
	}
	hasClock := r.Spec.DepartureVar != "" || r.Spec.DepartureSink != ""
	var deps []*term.Term
	if hasClock {
		d := floorInt64(r.Delay)
		report.DelayFloor = d
		deps = make([]*term.Term, T)
		for t := 0; t < T; t++ {
			dt, err := departures(t)
			if err != nil {
				return report, err
			}
			deps[t] = dt
		}
		// Delay violation at t: traffic counted into the system by step t
		// (path backlog + departures so far) has not fully departed by
		// step t+d. Only steps with t+d inside the horizon are conclusive.
		for t := 0; t+int(d) < T; t++ {
			arrived := b.Add(backlogs[t], deps[t])
			viols = append(viols, b.Lt(deps[t+int(d)], arrived))
		}
	}
	if err := sv.AssertAll(cctx, append(slices.Clip(c.Assumes), b.Or(viols...))); err != nil {
		return report, err
	}

	outcome := sv.CheckContextNoModel(cctx)
	report.Duration = time.Since(start)
	switch outcome {
	case solver.Unsat:
		report.Status = "dominated"
		sp.SetAttrs(telemetry.String("status", report.Status))
		return report, nil
	case solver.Unknown:
		report.Status = "unknown"
		report.Stop = sv.StopReason().String()
		sp.SetAttrs(telemetry.String("status", report.Status))
		if err := ctx.Err(); err != nil {
			return report, err
		}
		return report, nil
	}
	// SAT: decode the witness for the error message.
	sv.SnapshotModel()
	report.Status = "disagreement"
	sp.SetAttrs(telemetry.String("status", report.Status))
	worstBacklog, worstStep := int64(-1), -1
	for t := 0; t < T; t++ {
		if v := sv.IntValue(backlogs[t]); v > worstBacklog {
			worstBacklog, worstStep = v, t
		}
	}
	report.Witness = fmt.Sprintf("path backlog %d at step %d (bound %s)",
		worstBacklog, worstStep, r.Backlog.RatString())
	if hasClock {
		for t := 0; t+int(report.DelayFloor) < T; t++ {
			arrived := sv.IntValue(backlogs[t]) + sv.IntValue(deps[t])
			departed := sv.IntValue(deps[t+int(report.DelayFloor)])
			if arrived > departed {
				report.Witness += fmt.Sprintf("; %d packets arrived by step %d, only %d departed by step %d (delay bound %s)",
					arrived, t, departed, t+int(report.DelayFloor), r.Delay.RatString())
				break
			}
		}
	}
	return report, fmt.Errorf("%w: %s on %s at T=%d", ErrDisagreement, report.Witness, r.Program, T)
}
