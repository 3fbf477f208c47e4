package fperf

import (
	"context"
	"testing"

	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
)

func synth(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	info, err := qm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeContext(context.Background(), info, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A throughput query: output accumulates T packets iff a packet arrives
// every step. Synthesis must find (a generalization of) that workload.
func TestSynthesizeThroughputWorkload(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == T - 1) { assert(backlog-p(b) == T); }
	}`
	res := synth(t, src, Options{IR: ir.Options{T: 3}})
	if !res.Found {
		t.Fatal("expected a synthesized workload")
	}
	// The workload must constrain every step's arrivals (one packet must
	// arrive each step for full throughput).
	if len(res.Workload) != 3 {
		t.Errorf("workload = %v, want one atom per step", res.Workload)
	}
	for _, a := range res.Workload {
		if a.K != 1 {
			t.Errorf("atom %v: K = %d, want 1", a, a.K)
		}
		if a.Op == OpLe {
			t.Errorf("atom %v: <= cannot force arrivals", a)
		}
	}
}

// A vacuously reachable query over-approximates nothing: if the query asks
// for an empty buffer, the workload generalizes to very few atoms.
func TestSynthesizeGeneralizes(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, backlog-p(a));
		if (t == T - 1) { assert(backlog-p(a) == 0); }
	}`
	// a is fully drained every step, so the assert holds for ALL traffic:
	// generalization should drop every atom.
	res := synth(t, src, Options{IR: ir.Options{T: 3}})
	if !res.Found {
		t.Fatal("expected a synthesized workload")
	}
	if len(res.Workload) != 0 {
		t.Errorf("workload = %v, want empty (query holds universally)", res.Workload)
	}
}

// An unreachable query yields no workload.
func TestSynthesizeUnreachable(t *testing.T) {
	src := `p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == 0) { assert(backlog-p(b) == 5); }
	}`
	res := synth(t, src, Options{IR: ir.Options{T: 2}})
	if res.Found {
		t.Fatalf("query is unreachable; got workload %v", res.Workload)
	}
}

// The paper's use case: synthesize the traffic pattern that starves
// queue 1 in the buggy FQ scheduler (§6.1: "FPerf synthesizes a set of
// conditions on the input traffic ... that will satisfy the query").
func TestSynthesizeFQStarvationWorkload(t *testing.T) {
	info, err := qm.Load(qm.FQBuggyQuerySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeContext(context.Background(), info, Options{IR: ir.Options{
		T: 5, Params: map[string]int64{"N": 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("expected a starvation workload on the buggy scheduler")
	}
	// Validate the result end to end: workload && assumes must imply the
	// query (re-checked on a fresh solver to rule out state leakage).
	sv := solver.New(solver.Options{})
	c, err := ir.CompileContext(context.Background(), info, sv.Builder(), ir.Options{T: 5, Params: map[string]int64{"N": 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Assumes {
		sv.Assert(a)
	}
	b := sv.Builder()
	sv.Assert(res.Workload.Term(c))
	sv.Assert(b.Not(b.And(c.AssertHolds(), c.AssertReached())))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("synthesized workload does not guarantee the query: %v\nworkload: %v", got, res.Workload)
	}
	t.Logf("synthesized workload: %v (%d checks in %v)", res.Workload, res.Checks, res.Duration)
}

// Havoc-driven failure: when a havoc (not traffic) controls the assert, no
// traffic-only workload can guarantee the query.
func TestSynthesizeHavocBlocksWorkload(t *testing.T) {
	src := `p(buffer a, buffer b) {
		local int x;
		havoc x;
		assume(x >= 0);
		assume(x <= 1);
		move-p(a, b, 1);
		assert(x == 0);
	}`
	res := synth(t, src, Options{IR: ir.Options{T: 1}})
	if res.Found {
		t.Fatalf("no traffic workload can control the havoc; got %v", res.Workload)
	}
}
