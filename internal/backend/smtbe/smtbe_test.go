package smtbe

import (
	"context"
	"testing"

	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
)

func load(t *testing.T, src string) *typecheck.Info {
	t.Helper()
	info, err := qm.Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return info
}

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := CheckContext(context.Background(), load(t, src), opts)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return res
}

// A trivially-true per-step assert must verify.
func TestVerifyTrivialHolds(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, 1);
		assert(backlog-p(a) >= 0);
	}`
	res := run(t, src, Options{IR: ir.Options{T: 3}, Mode: Verify})
	if res.Status != Holds {
		t.Fatalf("status = %v, want holds", res.Status)
	}
}

// backlog can exceed 0 when a packet arrives: verification must find a
// counterexample with an arriving packet.
func TestVerifyFindsCounterexample(t *testing.T) {
	src := `p(buffer a, buffer b) {
		assert(backlog-p(a) == 0);
		move-p(a, b, backlog-p(a));
	}`
	res := run(t, src, Options{IR: ir.Options{T: 2}, Mode: Verify})
	if res.Status != CounterexampleFound {
		t.Fatalf("status = %v, want counterexample", res.Status)
	}
	if len(res.Trace.Packets) == 0 {
		t.Fatal("counterexample should contain at least one arriving packet")
	}
}

// Assumes prune executions: with arrivals forbidden by assumption, the
// same assert holds.
func TestAssumeRestrictsTraffic(t *testing.T) {
	src := `p(buffer a, buffer b) {
		assume(backlog-p(a) == 0);
		assert(backlog-p(a) == 0);
		move-p(a, b, backlog-p(a));
	}`
	res := run(t, src, Options{IR: ir.Options{T: 3}, Mode: Verify})
	if res.Status != Holds {
		t.Fatalf("status = %v, want holds", res.Status)
	}
}

// Witness mode: find an execution where the output accumulates exactly 3
// packets over 3 steps.
func TestWitnessThroughput(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == 2) { assert(backlog-p(b) == 3); }
	}`
	res := run(t, src, Options{IR: ir.Options{T: 3}, Mode: Witness})
	if res.Status != WitnessFound {
		t.Fatalf("status = %v, want witness", res.Status)
	}
	// The witness needs a packet available every step.
	if len(res.Trace.Packets) < 3 {
		t.Errorf("witness has %d arrivals, want >= 3\n%s", len(res.Trace.Packets), res.Trace)
	}
	if got := res.Trace.Backlogs[2]["b"]; got != 3 {
		t.Errorf("end backlog(b) = %d, want 3", got)
	}
}

// An impossible witness: 3 departures in 2 steps at one per step.
func TestWitnessImpossible(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == 1) { assert(backlog-p(b) == 3); }
	}`
	res := run(t, src, Options{IR: ir.Options{T: 2}, Mode: Witness})
	if res.Status != NoWitness {
		t.Fatalf("status = %v, want no-witness", res.Status)
	}
}

// Globals persist across steps; locals reset.
func TestGlobalPersistsLocalResets(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global int g;
		local int l;
		g = g + 1;
		l = l + 1;
		assert(l == 1);
		if (t == 3) { assert(g == 4); }
		move-p(a, b, 1);
	}`
	res := run(t, src, Options{IR: ir.Options{T: 4}, Mode: Verify})
	if res.Status != Holds {
		t.Fatalf("status = %v, want holds (locals reset, globals persist)", res.Status)
	}
}

// Monitor arithmetic and T/2 constant folding.
func TestMonitorAndConstDivision(t *testing.T) {
	src := `p(buffer a, buffer b) {
		monitor int served;
		local int n;
		n = backlog-p(a);
		if (n > 1) { n = 1; }
		move-p(a, b, n);
		served = served + n;
		if (t == T - 1) { assert(served <= T); }
		if (t == T - 1) { assert(served >= T/2 - T/2); }
	}`
	res := run(t, src, Options{IR: ir.Options{T: 4}, Mode: Verify})
	if res.Status != Holds {
		t.Fatalf("status = %v, want holds", res.Status)
	}
}

// Havoc introduces genuine nondeterminism bounded by assumes.
func TestHavocNondeterminism(t *testing.T) {
	src := `p(buffer a, buffer b) {
		local int x;
		havoc x;
		assume(x >= 0);
		assume(x <= 2);
		assert(x <= 1);
		move-p(a, b, 1);
	}`
	res := run(t, src, Options{IR: ir.Options{T: 1}, Mode: Verify})
	if res.Status != CounterexampleFound {
		t.Fatalf("status = %v, want counterexample (x=2 breaks the assert)", res.Status)
	}
	// Narrow the assume and it holds.
	src2 := `p(buffer a, buffer b) {
		local int x;
		havoc x;
		assume(x >= 0);
		assume(x <= 1);
		assert(x <= 1);
		move-p(a, b, 1);
	}`
	res2 := run(t, src2, Options{IR: ir.Options{T: 1}, Mode: Verify})
	if res2.Status != Holds {
		t.Fatalf("status = %v, want holds", res2.Status)
	}
}

// Packet conservation: arrivals = backlog(a) + backlog(b) when b only
// receives from a.
func TestConservationProperty(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, 2);
		assert(backlog-p(a) >= 0);
	}`
	info := load(t, src)
	s := solver.New(solver.Options{})
	c, err := ir.CompileContext(context.Background(), info, s.Builder(), ir.Options{T: 3, Bounds: typecheck.Bounds{ArrivalsPerStep: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Assumes {
		s.Assert(a)
	}
	b := s.Builder()
	// Count arrivals symbolically.
	total := b.IntConst(0)
	for _, a := range c.Arrivals {
		total = b.Add(total, b.Ite(a.Valid, b.IntConst(1), b.IntConst(0)))
	}
	last := c.Steps[len(c.Steps)-1]
	cctx := machineCtx(c, s)
	sum := b.Add(last.Buffers["a"].BacklogP(cctx), last.Buffers["b"].BacklogP(cctx))
	s.Assert(b.Neq(total, sum))
	if got := s.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("conservation violated: %v", got)
	}
}

// Scheduler sanity: strict priority gives queue 0 everything it asks for.
func TestSPWitness(t *testing.T) {
	res := run(t, qm.SPQuerySrc, Options{
		IR:   ir.Options{T: 5, Params: map[string]int64{"N": 2}},
		Mode: Witness,
	})
	if res.Status != WitnessFound {
		t.Fatalf("status = %v, want witness (SP starves by design)", res.Status)
	}
	if got := res.Trace.Vars[4]["cdeq1"]; got > 1 {
		t.Errorf("cdeq1 = %d, want <= 1 (queue 1 starved)", got)
	}
}

// Scheduler sanity: round-robin cannot starve under constant demand.
func TestRRNoWitness(t *testing.T) {
	res := run(t, qm.RRQuerySrc, Options{
		IR:   ir.Options{T: 6, Params: map[string]int64{"N": 2}},
		Mode: Witness,
	})
	if res.Status != NoWitness {
		t.Fatalf("status = %v, want no-witness (RR is fair)", res.Status)
	}
}

// The headline case study (CS1): the buggy FQ scheduler admits a
// starvation witness.
func TestFQBuggyStarvationWitness(t *testing.T) {
	res := run(t, qm.FQBuggyQuerySrc, Options{
		IR:   ir.Options{T: 6, Params: map[string]int64{"N": 3}},
		Mode: Witness,
	})
	if res.Status != WitnessFound {
		t.Fatalf("status = %v, want witness (the FQ-CoDel bug)", res.Status)
	}
	if got := res.Trace.Vars[5]["cdeq1"]; got > 1 {
		t.Errorf("cdeq1 = %d, want <= 1 (queue 1 starved)\n%s", got, res.Trace)
	}
}

// CS1b: with the RFC 8290 fix the same witness search fails.
func TestFQFixedNoStarvationWitness(t *testing.T) {
	res := run(t, qm.FQFixedQuerySrc, Options{
		IR:   ir.Options{T: 6, Params: map[string]int64{"N": 3}},
		Mode: Witness,
	})
	if res.Status != NoWitness {
		t.Fatalf("status = %v, want no-witness (fix removes the bug)", res.Status)
	}
}

// Iterative deepening finds the minimal horizon at which a query first
// becomes satisfiable.
func TestFindMinHorizon(t *testing.T) {
	// Accumulating 4 packets at one departure per step needs exactly T=4.
	info := load(t, `p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == T - 1) { assert(backlog-p(b) == 4); }
	}`)
	res, T, err := FindMinHorizon(context.Background(), info, Options{Mode: Witness}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != WitnessFound || T != 4 {
		t.Fatalf("status=%v T=%d, want witness at exactly 4", res.Status, T)
	}
	// An unreachable query exhausts the budget without a trace.
	info2 := load(t, `p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == T - 1) { assert(backlog-p(b) == 100); }
	}`)
	res2, T2, err := FindMinHorizon(context.Background(), info2, Options{Mode: Witness}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil || T2 != 3 {
		t.Fatalf("unreachable query: trace=%v T=%d", res2.Trace, T2)
	}
}
