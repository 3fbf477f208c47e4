package interp

import (
	"context"
	"math/rand"
	"testing"

	"buffy/internal/backend/smtbe"
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

func TestSimpleMove(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) { move-p(a, b, 2); }`)
	m, err := New(info, Options{T: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Buffer("a").Arrive(Packet{Fields: []int64{int64(i)}, Bytes: 1})
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Buffer("a").BacklogP(); got != 1 {
		t.Errorf("backlog(a) = %d, want 1", got)
	}
	if got := m.Buffer("b").BacklogP(); got != 2 {
		t.Errorf("backlog(b) = %d, want 2", got)
	}
	// FIFO: b holds flows 0,1; a holds flow 2.
	if m.Buffer("b").Pkts[0].Fields[0] != 0 || m.Buffer("b").Pkts[1].Fields[0] != 1 {
		t.Error("move did not preserve FIFO order")
	}
}

func TestAssertAndAssume(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) {
		assume(backlog-p(a) <= 2);
		assert(backlog-p(a) <= 1);
		move-p(a, b, backlog-p(a));
	}`)
	m, _ := New(info, Options{T: 1})
	m.Buffer("a").Arrive(Packet{Fields: []int64{0}, Bytes: 1})
	m.Buffer("a").Arrive(Packet{Fields: []int64{0}, Bytes: 1})
	if err := m.Step(0); err != nil {
		t.Fatalf("assume should hold: %v", err)
	}
	if len(m.Failures()) != 1 {
		t.Errorf("failures = %d, want 1", len(m.Failures()))
	}
	// Third packet violates the assume.
	m2, _ := New(info, Options{T: 1})
	for i := 0; i < 3; i++ {
		m2.Buffer("a").Arrive(Packet{Fields: []int64{0}, Bytes: 1})
	}
	if err := m2.Step(0); err == nil {
		t.Error("expected ErrAssumeViolated")
	}
}

func TestListOpsAndLoops(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) {
		global list l;
		local int x; local bool e;
		for (i in 0..3) { l.push_back(i * 10); }
		x = l.pop_front();
		assert(x == 0);
		assert(l.has(20));
		assert(!l.has(0));
		e = l.empty();
		assert(!e);
		assert(l.size() == 2);
		move-p(a, b, 1);
	}`)
	m, _ := New(info, Options{T: 1})
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if len(m.Failures()) != 0 {
		t.Fatalf("unexpected assert failures: %v", m.Failures())
	}
}

func TestFQBuggyConcreteStarvation(t *testing.T) {
	// Drive the buggy scheduler with the adversarial pattern from the RFC:
	// queue 0 sends exactly one packet per step; queue 1 has standing
	// demand. Queue 1 must be served at most once.
	info := load(t, qm.FQBuggySrc)
	const T = 8
	m, err := New(info, Options{T: T, Params: map[string]int64{"N": 3}})
	if err != nil {
		t.Fatal(err)
	}
	served := func() int64 { return m.Buffer("ob").BacklogP() }
	q1Drained := int64(0)
	q1Sent := int64(0)
	for step := 0; step < T; step++ {
		// Queue 0 sends a packet every step except step 2: it is not served
		// at step 1 (queue 1's single new-queue turn), so skipping one
		// arrival keeps its backlog at exactly 1 — the RFC's "transmits at
		// just the right rate" condition for re-entering new_queues forever.
		if step != 2 {
			m.Buffer("ibs[0]").Arrive(Packet{Fields: []int64{0}, Bytes: 1})
		}
		if step == 0 {
			m.Buffer("ibs[1]").Arrive(Packet{Fields: []int64{1}, Bytes: 1})
			m.Buffer("ibs[1]").Arrive(Packet{Fields: []int64{1}, Bytes: 1})
			q1Sent = 2
		}
		before := m.Buffer("ibs[1]").BacklogP()
		if err := m.Step(step); err != nil {
			t.Fatal(err)
		}
		q1Drained += before - m.Buffer("ibs[1]").BacklogP()
	}
	if served() != T {
		t.Errorf("output = %d, want %d (work conserving under this load)", served(), T)
	}
	if q1Drained > 1 {
		t.Errorf("queue 1 served %d times; the bug should starve it to <= 1", q1Drained)
	}
	_ = q1Sent
}

// Differential test, solver -> interpreter direction: every witness or
// counterexample trace must replay concretely with identical observations.
func TestReplayAgreesWithSolver(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int64
		T      int
		mode   smtbe.Mode
	}{
		{"fq-buggy-witness", qm.FQBuggyQuerySrc, map[string]int64{"N": 3}, 6, smtbe.Witness},
		{"sp-witness", qm.SPQuerySrc, map[string]int64{"N": 2}, 5, smtbe.Witness},
		{"counterexample", `p(buffer a, buffer b) {
			assert(backlog-p(a) == 0);
			move-p(a, b, backlog-p(a));
		}`, nil, 3, smtbe.Verify},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := load(t, c.src)
			res, err := smtbe.CheckContext(context.Background(), info, smtbe.Options{
				IR:   ir.Options{T: c.T, Params: c.params},
				Mode: c.mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatalf("no trace produced (status %v)", res.Status)
			}
			m, err := Replay(info, Options{T: c.T, Params: c.params}, res.Trace)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if diffs := Diff(m, res.Trace); len(diffs) > 0 {
				t.Fatalf("solver/interpreter disagree:\n%v\ntrace:\n%s", diffs, res.Trace)
			}
			switch c.mode {
			case smtbe.Witness:
				if len(m.Failures()) != 0 {
					t.Errorf("witness replay has assert failures: %v", m.Failures())
				}
			case smtbe.Verify:
				if len(m.Failures()) == 0 {
					t.Error("counterexample replay should fail an assert")
				}
			}
		})
	}
}

// Differential test, interpreter -> solver direction: for random concrete
// arrival patterns, pinning the symbolic arrivals to those values must
// force the solver to agree with the interpreter's end state.
func TestRandomTrafficAgreement(t *testing.T) {
	srcs := []struct {
		name   string
		src    string
		params map[string]int64
	}{
		{"rr", qm.RRSrc, map[string]int64{"N": 3}},
		{"sp", qm.SPSrc, map[string]int64{"N": 3}},
		{"fq", qm.FQBuggySrc, map[string]int64{"N": 3}},
		{"filtered", `p(buffer a, buffer b) {
			monitor int m1;
			move-p(a |> flow == 1, b, 1);
			m1 = m1 + backlog-p(b |> flow == 1);
		}`, nil},
	}
	rng := rand.New(rand.NewSource(99))
	const T = 4
	for _, sc := range srcs {
		t.Run(sc.name, func(t *testing.T) {
			info := load(t, sc.src)
			for iter := 0; iter < 5; iter++ {
				// Generate a random arrival pattern: 0..2 packets per input
				// buffer per step, random flow in [0,3).
				irOpts := ir.Options{
					T: T, Params: sc.params, Bounds: typecheck.Bounds{ArrivalsPerStep: 2, NumClasses: 3},
				}
				s := solver.New(solver.Options{})
				comp, err := ir.CompileContext(context.Background(), info, s.Builder(), irOpts)
				if err != nil {
					t.Fatal(err)
				}
				im, err := New(info, Options{
					T: T, Params: sc.params, Bounds: typecheck.Bounds{ArrivalsPerStep: 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				b := s.Builder()
				for _, a := range comp.Assumes {
					s.Assert(a)
				}
				// Pin arrivals: group compiled slots by (step, buffer).
				type key struct {
					step int
					buf  string
				}
				slots := map[key][]ir.Arrival{}
				for _, a := range comp.Arrivals {
					k := key{a.Step, a.Buffer}
					slots[k] = append(slots[k], a)
				}
				type arrival struct {
					flow int64
				}
				plan := map[key][]arrival{}
				for k, sl := range slots {
					n := rng.Intn(len(sl) + 1)
					for i := 0; i < n; i++ {
						plan[k] = append(plan[k], arrival{flow: int64(rng.Intn(3))})
					}
				}
				for k, sl := range slots {
					want := plan[k]
					for i, a := range sl {
						if i < len(want) {
							s.Assert(a.Valid)
							s.Assert(b.Eq(a.Fields[0], b.IntConst(want[i].flow)))
						} else {
							s.Assert(b.Not(a.Valid))
						}
					}
				}
				// Run the interpreter on the same plan.
				abort := false
				for step := 0; step < T && !abort; step++ {
					for _, name := range im.Inputs() {
						for _, a := range plan[key{step, name}] {
							im.Buffer(name).Arrive(Packet{Fields: []int64{a.flow}, Bytes: 1})
						}
					}
					if err := im.Step(step); err != nil {
						// Assume violated: the solver must agree the plan is
						// infeasible.
						if got := s.Check(context.Background()); got != solver.Unsat {
							t.Fatalf("iter %d: interp rejects plan (%v) but solver says %v", iter, err, got)
						}
						abort = true
					}
				}
				if abort {
					continue
				}
				if got := s.Check(context.Background()); got != solver.Sat {
					t.Fatalf("iter %d: pinned arrivals should be sat, got %v", iter, got)
				}
				// Compare end-of-run observations.
				tr := smtbe.ExtractTrace(comp, s)
				if diffs := Diff(im, tr); len(diffs) > 0 {
					t.Fatalf("iter %d: disagreement:\n%v", iter, diffs)
				}
			}
		})
	}
}

func TestArraysAndOutOfRange(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) {
		global int[3] arr;
		local int i; local int x;
		for (k in 0..3) { arr[k] = k * 10; }
		i = 7;
		arr[i] = 99;
		x = arr[i];
		assert(x == 0);
		assert(arr[2] == 20);
		move-p(a, b, 1);
	}`)
	m, err := New(info, Options{T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if len(m.Failures()) != 0 {
		t.Fatalf("failures: %v", m.Failures())
	}
	if got := m.Var("arr[1]"); got != 10 {
		t.Errorf("arr[1] = %d", got)
	}
}

func TestHavocBoolNormalized(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) {
		local bool q;
		havoc q;
		if (q) { move-p(a, b, 1); }
	}`)
	m, _ := New(info, Options{T: 1})
	m.SetHavocSource(func(step int, name string) int64 { return 7 }) // non-0/1
	m.Buffer("a").Arrive(Packet{Fields: []int64{0}, Bytes: 1})
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Buffer("b").BacklogP(); got != 1 {
		t.Errorf("havoc bool 7 should read as true; moved = %d", got)
	}
}

func TestWidthWrapInInterpreter(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) {
		global int g;
		g = 2047 + 1;
		assert(g == -2048);
		move-p(a, b, 1);
	}`)
	m, _ := New(info, Options{T: 1, Width: 12})
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if len(m.Failures()) != 0 {
		t.Fatalf("wrap semantics mismatch: %v (g=%d)", m.Failures(), m.Var("g"))
	}
}

func TestFilteredMoveConcrete(t *testing.T) {
	info := load(t, `p(buffer a, buffer b) {
		move-p(a |> flow == 1, b, 2);
	}`)
	m, _ := New(info, Options{T: 1})
	for _, f := range []int64{1, 0, 1, 1} {
		m.Buffer("a").Arrive(Packet{Fields: []int64{f}, Bytes: 1})
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Buffer("b").BacklogP(); got != 2 {
		t.Errorf("moved = %d, want 2", got)
	}
	// Order: a keeps [0, 1] (flows), b holds [1, 1].
	if m.Buffer("a").Pkts[0].Fields[0] != 0 || m.Buffer("a").Pkts[1].Fields[0] != 1 {
		t.Errorf("a remainder wrong: %v", m.Buffer("a").Pkts)
	}
}
