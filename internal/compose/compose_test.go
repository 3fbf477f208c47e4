package compose

import (
	"context"
	"testing"

	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// Two chained one-step delay stages: a packet entering stage 1 at step t
// is in stage 2's output at end of step t+1.
func TestDelayChain(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	sys := NewSystem(b)

	d1Info, err := qm.Load(`d1(buffer din, buffer dout){ move-p(din, dout, backlog-p(din)); }`)
	if err != nil {
		t.Fatal(err)
	}
	d2Info, err := qm.Load(`d2(buffer din, buffer dout){ move-p(din, dout, backlog-p(din)); }`)
	if err != nil {
		t.Fatal(err)
	}
	const T = 3
	if _, err := sys.Add(d1Info, ir.Options{T: T}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Add(d2Info, ir.Options{T: T}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Connect("d1", "dout", "d2", "din"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(T); err != nil {
		t.Fatal(err)
	}
	for _, a := range sys.Assumes() {
		sv.Assert(a)
	}
	// Force exactly one arrival, at step 0 into d1.din.
	arr := sys.Arrivals()
	for _, a := range arr {
		if a.Step == 0 {
			sv.Assert(a.Valid)
		} else {
			sv.Assert(b.Not(a.Valid))
		}
	}
	out := sys.Machine("d2").Buffers()["dout"]
	// After 3 steps the packet must have traversed both stages: it leaves
	// d1 during step 0, flushes into d2 at end of step 0, leaves d2 during
	// step 1, so dout holds 1 packet from step 1 on.
	sv.Assert(b.Neq(out.BacklogP(sys.Ctx()), b.IntConst(1)))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("delay chain semantics wrong: %v", got)
	}
}

func TestConnectValidation(t *testing.T) {
	sv := solver.New(solver.Options{})
	sys := NewSystem(sv.Builder())
	info, _ := qm.Load(`d1(buffer din, buffer dout){ move-p(din, dout, 1); }`)
	if _, err := sys.Add(info, ir.Options{T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Connect("nosuch", "dout", "d1", "din"); err == nil {
		t.Error("unknown source program accepted")
	}
	if err := sys.Connect("d1", "din", "d1", "din"); err == nil {
		t.Error("input used as connection source accepted")
	}
	if err := sys.Connect("d1", "dout", "d1", "dout"); err == nil {
		t.Error("output used as connection target accepted")
	}
	info2, _ := qm.Load(`d2(buffer din, buffer dout){ move-p(din, dout, 1); }`)
	if _, err := sys.Add(info2, ir.Options{T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Connect("d1", "dout", "d2", "din"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Connect("d1", "dout", "d2", "din"); err == nil {
		t.Error("double connection accepted")
	}
}

// CS2: the CCAC ack-burst scenario — the composed AIMD/path/delay system
// can reach packet loss at the bottleneck when the path server delays
// service and releases a burst.
func TestCCACLossWitness(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	sys, err := BuildCCAC(b, CCACParams{C: 1, B: 1, IW: 2, K: 2, T: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Sys.CheckQuery(context.Background(), sv, sys.Loss(b))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatalf("expected a loss witness (ack burst); got unsat/unknown")
	}
	// Sanity: the witness actually shows drops at the bottleneck.
	dropped := sv.IntValue(sys.Path.Buffers()["pin"].Dropped())
	if dropped <= 0 {
		t.Errorf("witness has dropped = %d, want > 0", dropped)
	}
}

// With a deep bottleneck queue, the same horizon admits no loss.
func TestCCACNoLossWithDeepBuffer(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	sys, err := BuildCCAC(b, CCACParams{C: 2, B: 2, IW: 2, K: 40, T: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Sys.CheckQuery(context.Background(), sv, sys.Loss(b))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatalf("deep buffer should admit no loss in 6 steps")
	}
}

// The path server's token bucket really bounds throughput: delivered can
// never exceed C*T + B.
func TestCCACThroughputBound(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	const C, B2, T = 2, 1, 6
	sys, err := BuildCCAC(b, CCACParams{C: C, B: B2, IW: 4, K: 20, T: T})
	if err != nil {
		t.Fatal(err)
	}
	bound := b.IntConst(int64(C*T + B2))
	res, err := sys.Sys.CheckQuery(context.Background(), sv, b.Lt(bound, sys.Delivered()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatalf("token bucket violated: delivered > C*T+B is satisfiable (delivered=%d)",
			sv.IntValue(sys.Delivered()))
	}
}

// Monitors survive composition: delivered equals the ack sink's total plus
// in-flight acks... simpler: delivered is non-negative and bounded by what
// the CCA ever sent.
func TestCCACDeliveredNonNegative(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	sys, err := BuildCCAC(b, CCACParams{C: 1, B: 1, IW: 1, K: 5, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Sys.CheckQuery(context.Background(), sv, b.Lt(sys.Delivered(), b.IntConst(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatal("delivered went negative")
	}
}

// A program with no term-level connections still runs standalone in a
// system, and its arrivals are all external.
func TestStandaloneProgramInSystem(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	sys := NewSystem(b)
	info, _ := qm.Load(qm.SPSrc)
	if _, err := sys.Add(info, ir.Options{T: 2, Params: map[string]int64{"N": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Arrivals()); got != 4 { // 2 inputs x 2 steps x 1 slot
		t.Errorf("arrivals = %d, want 4", got)
	}
	for _, a := range sys.Assumes() {
		sv.Assert(a)
	}
	if got := sv.Check(context.Background()); got != solver.Sat {
		t.Fatalf("standalone system should be satisfiable, got %v", got)
	}
	_ = term.Bool
}

// Two instances of the SAME program compose into a 2-step delay chain;
// instance naming keeps their symbolic state disjoint.
func TestSameProgramTwiceViaInstances(t *testing.T) {
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	sys := NewSystem(b)
	info, err := qm.Load(qm.DelaySrc)
	if err != nil {
		t.Fatal(err)
	}
	const T = 3
	if _, err := sys.AddInstance("stage1", info, ir.Options{T: T}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddInstance("stage2", info, ir.Options{T: T}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddInstance("stage1", info, ir.Options{T: T}); err == nil {
		t.Fatal("duplicate instance name accepted")
	}
	if err := sys.Connect("stage1", "dout", "stage2", "din"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(T); err != nil {
		t.Fatal(err)
	}
	for _, a := range sys.Assumes() {
		sv.Assert(a)
	}
	for _, a := range sys.Arrivals() {
		if a.Step == 0 {
			sv.Assert(a.Valid)
		} else {
			sv.Assert(b.Not(a.Valid))
		}
	}
	out := sys.Machine("stage2").Buffers()["dout"]
	sv.Assert(b.Neq(out.BacklogP(sys.Ctx()), b.IntConst(1)))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("instance chain semantics wrong: %v", got)
	}
}

// A longer ack-path delay slows the control loop: at the same horizon the
// sender gets fewer acks, so delivered throughput shrinks monotonically
// with D.
func TestCCACLongerDelayLowersThroughput(t *testing.T) {
	maxDelivered := func(d int) int64 {
		// Find the largest achievable delivered count by binary probing.
		lo, hi := int64(0), int64(32)
		for lo < hi {
			mid := (lo + hi + 1) / 2
			sv := solver.New(solver.Options{})
			b := sv.Builder()
			sys, err := BuildCCAC(b, CCACParams{C: 2, B: 1, IW: 2, K: 12, T: 10, D: d})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Sys.CheckQuery(context.Background(), sv, b.Ge(sys.Delivered(), b.IntConst(mid)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Sat {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}
	d1, d3 := maxDelivered(1), maxDelivered(4)
	if d1 <= d3 {
		t.Errorf("delivered with D=1 (%d) should exceed D=4 (%d)", d1, d3)
	}
}
