package main

import (
	"fmt"
	"time"

	"buffy/internal/backend/dafny"
	"buffy/internal/backend/fperf"
	"buffy/internal/backend/smtbe"
	"buffy/internal/backend/ts"
	"buffy/internal/buffer"
	"buffy/internal/compose"
	"buffy/internal/core"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/qm/fperfenc"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
	"buffy/internal/synth"
)

// runTable1 regenerates Table 1: lines of code to model each scheduler
// with hand-written FPerf-style formula construction vs in Buffy. The
// paper reports FPerf 197/60/33 vs Buffy 18/10/7; our hand encodings are
// the Go equivalents in internal/qm/fperfenc. The paper's verdict is that
// the direct encoding is always the larger one.
func runTable1() error {
	rows := []struct {
		name   string
		direct int
		buffy  int
	}{
		{"Fair-Queue", fperfenc.LoCFQ(), qm.CountLoC(qm.FQBuggySrc)},
		{"Round-Robin", fperfenc.LoCRR(), qm.CountLoC(qm.RRSrc)},
		{"Strict-Priority", fperfenc.LoCSP(), qm.CountLoC(qm.SPSrc)},
	}
	fmt.Printf("%-16s  %18s  %10s  %6s\n", "Program", "FPerf-style (LoC)", "Buffy (LoC)", "ratio")
	for _, r := range rows {
		fmt.Printf("%-16s  %18d  %10d  %5.1fx\n", r.name, r.direct, r.buffy, float64(r.direct)/float64(r.buffy))
		if r.direct <= r.buffy {
			return fmt.Errorf("%s: direct encoding (%d LoC) is not larger than Buffy (%d LoC)", r.name, r.direct, r.buffy)
		}
	}
	fmt.Println("(paper: Fair-Queue 197/18, Round-Robin 60/10, Strict-Priority 33/7)")
	return nil
}

// runFig6 regenerates Figure 6: verify the FQ scheduler with the
// Dafny-style mini checker, under the workload synthesized by the
// FPerf-style back-end, at increasing horizons T. The paper's observation
// is that unrolling+inlining makes verification time grow steeply with T;
// every horizon must yield a workload under which the scheduler verifies.
func runFig6() error {
	prog, err := core.Parse(qm.FQBuggyQuerySrc)
	if err != nil {
		return err
	}
	params := map[string]int64{"N": 3}
	fmt.Printf("%3s  %12s  %10s  %10s\n", "T", "verify time", "clauses", "verified")
	for _, T := range []int{2, 3, 4, 5, 6, 7, 8} {
		// Synthesize the workload at this horizon (the paper uses FPerf's
		// synthesized traffic as the Dafny assumptions).
		sres, err := fperf.Synthesize(prog.Info, fperf.Options{
			IR: ir.Options{T: T, Params: params},
		})
		if err != nil {
			return err
		}
		if !sres.Found {
			return fmt.Errorf("T=%d: no workload synthesized", T)
		}
		wl := sres.Workload
		vres, err := dafny.Verify(prog.Info, dafny.VerifyOptions{
			IR: ir.Options{T: T, Params: params},
			ExtraAssume: func(c *ir.Compiled, sv *solver.Solver) {
				sv.Assert(wl.Term(c))
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("%3d  %12.4fs  %10d  %10v\n", T, vres.Duration.Seconds(), vres.NumClauses, vres.Verified)
		if !vres.Verified {
			return fmt.Errorf("T=%d: does not verify under the synthesized workload", T)
		}
	}
	fmt.Println("(paper: verification time increases exponentially with T under unroll+inline)")
	return nil
}

// runCS1 reproduces §6.1: the buggy FQ scheduler admits a trace where
// queue 1, despite constant demand, is served at most once.
func runCS1() error {
	prog, err := core.Parse(qm.FQBuggyQuerySrc)
	if err != nil {
		return err
	}
	fmt.Printf("%3s  %10s  %8s  %9s  %s\n", "T", "status", "time", "conflicts", "q1 served")
	for _, T := range []int{4, 6, 8, 10} {
		res, err := prog.FindWitness(core.Analysis{T: T, Params: map[string]int64{"N": 3}})
		if err != nil {
			return err
		}
		served := int64(-1)
		if res.Trace != nil {
			served = res.Trace.Vars[T-1]["cdeq1"]
		}
		fmt.Printf("%3d  %10v  %7.3fs  %9d  %d\n", T, res.Status, res.Duration.Seconds(), res.SatStats.Conflicts, served)
		if res.Status != smtbe.WitnessFound {
			return fmt.Errorf("T=%d: %v, want a starvation witness", T, res.Status)
		}
	}
	fmt.Println("(the RFC 8290 starvation bug: witness found at every horizon)")
	return nil
}

// runCS1b shows the RFC 8290 fix removes the starvation witness.
func runCS1b() error {
	prog, err := core.Parse(qm.FQFixedQuerySrc)
	if err != nil {
		return err
	}
	// T >= 6 is needed to separate rotation latency from real starvation:
	// in a 4-step horizon even a fair scheduler serves queue 1 only once.
	fmt.Printf("%3s  %10s  %8s\n", "T", "status", "time")
	for _, T := range []int{6, 8, 10} {
		res, err := prog.FindWitness(core.Analysis{T: T, Params: map[string]int64{"N": 3}})
		if err != nil {
			return err
		}
		fmt.Printf("%3d  %10v  %7.3fs\n", T, res.Status, res.Duration.Seconds())
		if res.Status != smtbe.NoWitness {
			return fmt.Errorf("T=%d: %v, want no witness", T, res.Status)
		}
	}
	fmt.Println("(fixed scheduler: no starvation witness once T separates rotation latency)")
	return nil
}

// runCS2 reproduces §6.2: the composed CCA/path/delay system reaches
// packet loss when the nondeterministic token bucket delays service and
// releases an ack burst.
func runCS2() error {
	type cfg struct {
		C, B, IW int64
		K, T     int
		loss     bool
	}
	cases := []cfg{
		{1, 1, 2, 2, 8, true},   // tight bottleneck: loss reachable
		{2, 2, 2, 3, 8, false},  // more service: safe at this horizon
		{2, 2, 2, 40, 6, false}, // deep buffer: safe
	}
	fmt.Printf("%-26s  %8s  %8s\n", "C/B/IW/K/T", "loss?", "time")
	for _, c := range cases {
		sv := solver.New(solver.Options{})
		sys, err := compose.BuildCCAC(sv.Builder(), compose.CCACParams{
			C: c.C, B: c.B, IW: c.IW, K: c.K, T: c.T,
		})
		if err != nil {
			return err
		}
		res := sys.Sys.CheckQuery(sv, sys.Loss(sv.Builder()))
		fmt.Printf("C=%d B=%d IW=%d K=%-2d T=%-2d      %8v  %7.3fs\n",
			c.C, c.B, c.IW, c.K, c.T, res.Sat, res.Duration.Seconds())
		if res.Sat != c.loss {
			return fmt.Errorf("C=%d B=%d IW=%d K=%d T=%d: loss reachable=%v, want %v",
				c.C, c.B, c.IW, c.K, c.T, res.Sat, c.loss)
		}
	}
	fmt.Println("(ack burst overflows a shallow bottleneck queue; deep buffers absorb it)")
	return nil
}

// runS1 measures the run-time cost of the language abstraction: the full
// Buffy pipeline against the hand-written FPerf-style encoding on the
// identical FQ starvation query (N=2, T=5, count model). Both must find
// the witness, and their solve times should be comparable.
func runS1() error {
	start := time.Now()
	sv := solver.New(solver.Options{})
	enc := fperfenc.EncodeFQ(sv, 2, 5)
	sv.Assert(enc.Assume)
	sv.Assert(enc.Query)
	if st := sv.Check(); st != solver.Sat {
		return fmt.Errorf("direct encoding: %v, want sat", st)
	}
	direct := time.Since(start)

	prog, err := core.Parse(qm.FQBuggyQuerySrc)
	if err != nil {
		return err
	}
	start = time.Now()
	res, err := prog.FindWitness(core.Analysis{T: 5, Params: map[string]int64{"N": 2}, Model: "count"})
	if err != nil {
		return err
	}
	pipeline := time.Since(start)
	if res.Status != smtbe.WitnessFound {
		return fmt.Errorf("pipeline: %v, want a starvation witness", res.Status)
	}
	fmt.Printf("%-10s  %8s  %10s\n", "encoding", "time", "clauses")
	fmt.Printf("%-10s  %7.3fs  %10d\n", "direct", direct.Seconds(), sv.NumClauses())
	fmt.Printf("%-10s  %7.3fs  %10d\n", "pipeline", pipeline.Seconds(), res.NumClauses)
	fmt.Println("(both find the starvation witness; the language abstraction costs little run time)")
	return nil
}

// runA1 compares buffer-model precision (§3): the same round-robin query
// under the count, multiclass and list models — encoding size and solve
// time — plus the paper's packet-order example that the count model
// cannot express.
func runA1() error {
	fmt.Printf("%-10s  %10s  %10s  %10s  %10s\n", "model", "status", "time", "clauses", "vars")
	for _, model := range []string{"count", "multiclass", "list"} {
		prog, err := core.Parse(qm.RRQuerySrc)
		if err != nil {
			return err
		}
		res, err := prog.FindWitness(core.Analysis{
			T: 6, Params: map[string]int64{"N": 2}, Model: model,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s  %10v  %9.3fs  %10d  %10d\n",
			model, res.Status, res.Duration.Seconds(), res.NumClauses, res.NumVars)
		if res.Status != smtbe.NoWitness {
			return fmt.Errorf("%s model: %v, want no witness", model, res.Status)
		}
	}

	// The §3 ordering example: [1,1,1,2,2,2] vs [1,2,1,2,1,2] have equal
	// per-flow counts. The list model distinguishes them (head contents
	// after 2 departures differ); the count/multiclass models cannot.
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	ctx := &buffer.Ctx{B: b, Assume: sv.Assert, Prefix: "a1"}
	mk := func(seq []int64) buffer.State {
		st := buffer.ListModel{}.Empty(ctx, buffer.Config{Cap: 6})
		for _, f := range seq {
			st.Arrive(ctx, buffer.Packet{Fields: []*term.Term{b.IntConst(f)}, Bytes: b.IntConst(1)}, b.True())
		}
		return st
	}
	s1 := mk([]int64{1, 1, 1, 2, 2, 2})
	s2 := mk([]int64{1, 2, 1, 2, 1, 2})
	sink1 := buffer.ListModel{}.Empty(ctx, buffer.Config{Cap: 6})
	sink2 := buffer.ListModel{}.Empty(ctx, buffer.Config{Cap: 6})
	_ = s1.MoveP(ctx, sink1, b.IntConst(2), nil, b.True())
	_ = s2.MoveP(ctx, sink2, b.IntConst(2), nil, b.True())
	f := buffer.Filter{Field: 0, Value: b.IntConst(2)}
	c1, _ := sink1.FilterBacklogP(ctx, f)
	c2, _ := sink2.FilterBacklogP(ctx, f)
	fmt.Printf("ordering example: after 2 departures, flow-2 packets out: %s vs %s (list model distinguishes;\n", c1, c2)
	fmt.Println("a count-only model sees identical states — §3's precision trade-off)")
	return nil
}

// runA2 compares modular vs monolithic analysis (§5): proving the token
// bucket's credit bound for EVERY horizon by 1-induction vs re-running
// monolithic BMC at growing horizons.
func runA2() error {
	prog, err := core.Parse(qm.PathServerSrc)
	if err != nil {
		return err
	}
	params := map[string]int64{"C": 2, "B": 2}
	bound := func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
		b := ctx.B
		return b.Le(m.Var("tokens"), b.IntConst(4))
	}

	start := time.Now()
	ind, err := ts.ProveInvariant(prog.Info, ts.Options{IR: ir.Options{Params: params}}, bound)
	if err != nil {
		return err
	}
	fmt.Printf("modular (1-induction, any horizon): proved=%v in %.4fs\n", ind.Proved, time.Since(start).Seconds())
	if !ind.Proved {
		return fmt.Errorf("1-induction did not prove the credit bound")
	}

	fmt.Printf("%-28s  %8s  %8s\n", "monolithic BMC", "holds", "time")
	for _, T := range []int{4, 8, 16, 24} {
		st := time.Now()
		ok, err := ts.CheckBounded(prog.Info, ts.Options{IR: ir.Options{T: T, Params: params}}, bound)
		if err != nil {
			return err
		}
		fmt.Printf("T=%-3d                         %8v  %7.3fs\n", T, ok, time.Since(st).Seconds())
		if !ok {
			return fmt.Errorf("T=%d: BMC finds the credit bound violated", T)
		}
	}
	fmt.Println("(induction is horizon-independent; BMC cost keeps growing with T)")
	return nil
}

// runA3 reproduces the Houdini run: the predicate grammar over the path
// server is pruned to its inductive core.
func runA3() error {
	prog, err := core.Parse(qm.PathServerSrc)
	if err != nil {
		return err
	}
	sv := solver.New(solver.Options{})
	iro := ir.Options{Params: map[string]int64{"C": 2, "B": 2}}
	probe, err := ir.NewMachine(prog.Info, sv.Builder(), iro)
	if err != nil {
		return err
	}
	cands := synth.Grammar(prog.Info, probe, synth.GrammarOptions{Consts: []int64{0, 1, 4, 8}})
	res, err := synth.Houdini(prog.Info, ts.Options{IR: iro}, cands)
	if err != nil {
		return err
	}
	fmt.Printf("candidates: %d   survivors: %d   rounds: %d   checks: %d   time: %.3fs\n",
		len(res.Survivors)+len(res.Dropped), len(res.Survivors), res.Rounds, res.Checks, res.Duration.Seconds())
	for _, c := range res.Survivors {
		fmt.Printf("  inductive: %s\n", c.Name)
	}
	for _, c := range res.Dropped {
		fmt.Printf("  dropped:   %s\n", c.Name)
	}
	if len(res.Survivors) == 0 {
		return fmt.Errorf("no candidate survived")
	}
	return nil
}

// runA4 measures the composed system's maximum achievable throughput as
// the ack-path delay D grows (each extra step of delay is one more chained
// instance of the one-step delay program): a longer control loop slows
// window growth, so less traffic can be delivered in the same horizon.
func runA4() error {
	fmt.Printf("%3s  %16s  %8s\n", "D", "max delivered", "time")
	for _, d := range []int{1, 2, 4} {
		start := time.Now()
		lo, hi := int64(0), int64(32)
		for lo < hi {
			mid := (lo + hi + 1) / 2
			sv := solver.New(solver.Options{})
			b := sv.Builder()
			sys, err := compose.BuildCCAC(b, compose.CCACParams{
				C: 2, B: 1, IW: 2, K: 12, T: 10, D: d,
			})
			if err != nil {
				return err
			}
			res := sys.Sys.CheckQuery(sv, b.Ge(sys.Delivered(), b.IntConst(mid)))
			if res.Sat {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		fmt.Printf("%3d  %16d  %7.3fs\n", d, lo, time.Since(start).Seconds())
	}
	fmt.Println("(longer feedback delay -> slower window growth -> lower bounded-horizon throughput)")
	return nil
}
