package netcalc

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"buffy/internal/lang/typecheck"
	"buffy/internal/telemetry"
)

// Fingerprint names the analytical bound semantics (min-plus arrival /
// service curves, TFA and SFA composition) for the durable result
// store's pipeline fingerprint. Bump it when a curve construction or
// composition change could tighten or loosen any reported bound.
const Fingerprint = "minplus-tfa-sfa-v1"

// Options configure a bound analysis. They carry the compile-time knobs
// of ir.Options that affect worst-case traffic (the bound is analytical —
// no horizon, no search budgets).
type Options struct {
	// Params are the program's compile-time parameter bindings.
	Params map[string]int64
	// ArrivalsPerStep bounds per-input arrivals per step (default 1); it is
	// the peak rate of unshaped input flows' arrival curves.
	ArrivalsPerStep int
}

// QuerySpec ties the analytical network back to the compiled program: which
// flow the bound query is about and which concrete ir state realizes it.
// The differential harness reads these to compare analytical bounds with
// SMT-witnessed executions.
type QuerySpec struct {
	// Victim is the flow whose bounds answer the query.
	Victim string
	// PathBuffers are the ir buffer instances the victim occupies while in
	// the measured system (its queue at every hop).
	PathBuffers []string
	// DepartureVar names a monitor counting victim departures, when the
	// model declares one ("" otherwise). It gives the differential harness
	// a departure clock for checking the delay bound.
	DepartureVar string
	// DepartureSink names an output buffer that accumulates victim
	// departures ("" when DepartureVar serves instead).
	DepartureSink string
}

// Result is a bound query's answer.
type Result struct {
	Program string
	Victim  string
	// Flows carries every flow's TFA/SFA bounds.
	Flows []FlowBounds
	// Bounded, Delay, Backlog are the victim flow's best bounds: Delay in
	// steps, Backlog in packets. Delay and Backlog are nil when unbounded.
	Bounded bool
	Delay   *big.Rat
	Backlog *big.Rat
	// Spec is the query binding used by the differential harness.
	Spec QuerySpec
	// Duration is the analysis wall-clock (microseconds territory).
	Duration time.Duration
	// CrossCheck is filled when a differential cross-check ran.
	CrossCheck *CrossCheckReport
}

// Analyze lowers a checked program to a feed-forward network, runs the TFA
// and SFA traversals and returns the victim flow's bounds. Unknown
// programs (no registered lowering) and missing parameters are errors;
// an unbounded flow is a negative answer, not an error.
func Analyze(ctx context.Context, info *typecheck.Info, opts Options) (*Result, error) {
	_, sp := telemetry.StartSpan(ctx, "netcalc")
	defer sp.End()
	start := time.Now()
	net, spec, err := Lower(info, opts)
	if err != nil {
		return nil, err
	}
	bounds, err := net.Analyze()
	if err != nil {
		return nil, err
	}
	r := &Result{Program: info.Prog.Name, Victim: spec.Victim, Flows: bounds, Spec: spec}
	for _, fb := range bounds {
		if fb.Flow == spec.Victim {
			r.Bounded = fb.Best.Bounded
			r.Delay = fb.Best.Delay
			r.Backlog = fb.Best.Backlog
		}
	}
	r.Duration = time.Since(start)
	sp.SetAttrs(
		telemetry.String("program", r.Program),
		telemetry.Bool("bounded", r.Bounded))
	return r, nil
}

// CorpusEntry is one qm model instance the netcalc corpus exercises: the
// source, the compile-time configuration, and whether the victim flow is
// expected to be bounded under it. The differential harness checks
// domination on the bounded entries and the honest "unbounded" answer on
// the rest.
type CorpusEntry struct {
	Name      string
	Src       string
	T         int // differential horizon
	Params    map[string]int64
	Arrivals  int // ArrivalsPerStep
	BufferCap int
	MaxBytes  int
	Bounded   bool
}

func missingParam(prog, name string) error {
	return fmt.Errorf("netcalc: program %s needs parameter %s for a bound query", prog, name)
}
