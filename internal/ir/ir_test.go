package ir

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"buffy/internal/buffer"
	"buffy/internal/lang/parser"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

func load(t *testing.T, src string) *typecheck.Info {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func compile(t *testing.T, src string, opts Options) (*Compiled, *solver.Solver) {
	t.Helper()
	sv := solver.New(solver.Options{})
	c, err := CompileContext(context.Background(), load(t, src), sv.Builder(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, sv
}

// prove checks that prop holds on every execution of the compiled program.
func prove(t *testing.T, c *Compiled, sv *solver.Solver, prop *term.Term, what string) {
	t.Helper()
	for _, a := range c.Assumes {
		sv.Assert(a)
	}
	sv.Assert(c.B.Not(prop))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("%s violated (%v)", what, got)
	}
}

func TestMissingParam(t *testing.T) {
	sv := solver.New(solver.Options{})
	_, err := CompileContext(context.Background(), load(t, `p(buffer[N] a, buffer b) { move-p(a[0], b, 1); }`),
		sv.Builder(), Options{T: 1})
	if err == nil || !strings.Contains(err.Error(), `parameter "N"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestConstantBufferIndexOutOfRange(t *testing.T) {
	sv := solver.New(solver.Options{})
	_, err := CompileContext(context.Background(), load(t, `p(buffer[N] a, buffer b) { move-p(a[5], b, 1); }`),
		sv.Builder(), Options{T: 1, Params: map[string]int64{"N": 2}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeIndexOutOfRangeIsNullBuffer(t *testing.T) {
	// head = 5 is out of range at run time: backlog reads 0, move is a
	// no-op — no error, matching the interpreter.
	src := `p(buffer[N] a, buffer b) {
		local int head; local int n;
		head = 5;
		n = backlog-p(a[head]);
		move-p(a[head], b, 1);
		assert(n == 0);
		assert(backlog-p(b) == 0);
	}`
	c, sv := compile(t, src, Options{T: 1, Params: map[string]int64{"N": 2}})
	prove(t, c, sv, c.AssertHolds(), "null-buffer semantics")
}

func TestArrayOutOfRangeSemantics(t *testing.T) {
	// Out-of-range reads give 0; out-of-range writes are dropped.
	src := `p(buffer a, buffer b) {
		local int[3] arr; local int i; local int x;
		i = 7;
		arr[i] = 42;
		x = arr[i];
		assert(x == 0);
		arr[1] = 9;
		assert(arr[1] == 9);
		move-p(a, b, 1);
	}`
	c, sv := compile(t, src, Options{T: 1})
	prove(t, c, sv, c.AssertHolds(), "array bounds semantics")
}

func TestGlobalInitializer(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global int g = W * 2 + 1;
		assert(g >= 7);
		g = g + 1;
		move-p(a, b, 1);
	}`
	c, sv := compile(t, src, Options{T: 2, Params: map[string]int64{"W": 3}})
	prove(t, c, sv, c.AssertHolds(), "initializer")
}

func TestLoopUnrollBoundExceeded(t *testing.T) {
	sv := solver.New(solver.Options{})
	_, err := CompileContext(context.Background(), load(t, `p(buffer a, buffer b) { local int x; for (i in 0..M) { x = x + 1; } move-p(a,b,1); }`),
		sv.Builder(), Options{T: 1, Params: map[string]int64{"M": 5000}})
	if err == nil || !strings.Contains(err.Error(), "unrolls") {
		t.Fatalf("err = %v", err)
	}
}

// TestLoopNestBoundExceeded checks that a nest whose loops are each within
// the trip cap still fails, fast and with a positioned error, once the
// product of its trip counts passes the cap on body runs per step.
func TestLoopNestBoundExceeded(t *testing.T) {
	src := `p(buffer a, buffer b) {
		local int x;
		for (i in 0..256) { for (j in 0..256) { for (k in 0..256) { for (l in 0..256) { x = x + 1; } } } }
		move-p(a, b, 1);
	}`
	sv := solver.New(solver.Options{})
	start := time.Now()
	_, err := CompileContext(context.Background(), load(t, src), sv.Builder(), Options{T: 1})
	var ie *Error
	if !errors.As(err, &ie) || ie.Pos.Line != 3 || !strings.Contains(ie.Msg, "loop nest") {
		t.Fatalf("err = %v, want a positioned loop-nest error on line 3", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rejecting the nest took %v", d)
	}
}

// TestSelfDoublingSumCompiles: each n = n + n would double the operand
// list of a fully flattened sum, so 30 of them would need 2^30 operands.
// term.Builder.Add bounds the flattening, and the program compiles to a
// few hundred terms.
func TestSelfDoublingSumCompiles(t *testing.T) {
	src := `p(buffer a, buffer b) {
		local int n;
		n = backlog-p(a);
		for (i in 0..30) { n = n + n; }
		move-p(a, b, n);
	}`
	c, _ := compile(t, src, Options{T: 1})
	if got := c.B.NumTerms(); got > 1000 {
		t.Errorf("compiled to %d terms, want at most 1000", got)
	}
}

// TestLoopTripsOverflow checks that bounds whose difference overflows
// int64 are rejected rather than unrolled.
func TestLoopTripsOverflow(t *testing.T) {
	src := `p(buffer a, buffer b) { local int x; for (i in L..H) { x = x + 1; } move-p(a, b, 1); }`
	sv := solver.New(solver.Options{})
	_, err := CompileContext(context.Background(), load(t, src), sv.Builder(), Options{T: 1, Params: map[string]int64{"L": -1 << 62, "H": 1 << 62}})
	if err == nil || !strings.Contains(err.Error(), "unrolls") {
		t.Fatalf("err = %v", err)
	}
}

// TestUnrollStopsWithinStep cancels a one-step unroll whose step alone
// runs for seconds: the poll between statements stops it, since the one
// between steps has passed. The half-run step leaves the machine unable
// to unroll again, so a retry cannot re-run the step on its half-built
// state.
func TestUnrollStopsWithinStep(t *testing.T) {
	src := `p(buffer a, buffer b) {
		for (i in 0..256) { for (j in 0..256) { move-p(a, b, 1); move-p(b, a, 1); } }
	}`
	sv := solver.New(solver.Options{})
	m, err := NewMachine(load(t, src), sv.Builder(), Options{T: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := m.Unroll(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Unroll = %v, want the context's error", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Unroll returned %v after the deadline", d)
	}
	if !m.Interrupted() {
		t.Fatal("machine not marked interrupted")
	}
	if err := m.Unroll(context.Background(), 1); !errors.Is(err, ErrStepInterrupted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Unroll after interruption = %v, want ErrStepInterrupted wrapping the cause", err)
	}
}

func TestNestedLoopsWithDependentBounds(t *testing.T) {
	src := `p(buffer a, buffer b) {
		local int total;
		for (i in 0..3) {
			for (j in 0..i) { total = total + 1; }
		}
		assert(total == 3);
		move-p(a, b, 1);
	}`
	c, sv := compile(t, src, Options{T: 1})
	prove(t, c, sv, c.AssertHolds(), "triangular loop count")
}

func TestCountModelRejectsFilterUse(t *testing.T) {
	sv := solver.New(solver.Options{})
	_, err := CompileContext(context.Background(), load(t, `p(buffer a, buffer b) {
		local int n;
		n = backlog-p(a |> flow == 1);
		move-p(a, b, n);
	}`), sv.Builder(), Options{T: 1, Model: buffer.CountModel{}})
	if err == nil || !strings.Contains(err.Error(), "cannot evaluate filters") {
		t.Fatalf("err = %v", err)
	}
}

func TestChainedFilterNeedsListModel(t *testing.T) {
	src := `p(buffer a, buffer b) {
		fields flow, prio;
		local int n;
		n = backlog-p(a |> flow == 1 |> prio == 0);
		move-p(a, b, n);
		assert(n >= 0);
	}`
	// List model: fine.
	c, sv := compile(t, src, Options{T: 1})
	prove(t, c, sv, c.AssertHolds(), "chained filters on list model")
	// Multiclass: rejected.
	sv2 := solver.New(solver.Options{})
	_, err := CompileContext(context.Background(), load(t, src), sv2.Builder(), Options{T: 1, Model: buffer.MultiClassModel{}})
	if err == nil {
		t.Fatal("multiclass should reject chained filters")
	}
}

func TestTimeBuiltins(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global int steps;
		steps = steps + 1;
		assert(steps == t + 1);
		if (t == T - 1) { assert(steps == T); }
		move-p(a, b, 1);
	}`
	c, sv := compile(t, src, Options{T: 5})
	prove(t, c, sv, c.AssertHolds(), "t/T builtins")
}

func TestArrivalSlotSymmetryBreaking(t *testing.T) {
	// Slot k valid implies slot k-1 valid.
	src := `p(buffer a, buffer b) { move-p(a, b, 1); assert(true); }`
	c, sv := compile(t, src, Options{T: 1, Bounds: typecheck.Bounds{ArrivalsPerStep: 3}})
	for _, a := range c.Assumes {
		sv.Assert(a)
	}
	b := c.B
	if len(c.Arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(c.Arrivals))
	}
	// slot2 valid && !slot1 valid must be infeasible.
	sv.Assert(c.Arrivals[2].Valid)
	sv.Assert(b.Not(c.Arrivals[1].Valid))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("symmetry breaking missing: %v", got)
	}
}

func TestOutputAccumulatesAcrossSteps(t *testing.T) {
	src := `p(buffer a, buffer b) { move-p(a, b, backlog-p(a)); assert(true); }`
	c, sv := compile(t, src, Options{T: 3})
	for _, a := range c.Assumes {
		sv.Assert(a)
	}
	b := c.B
	ctx := &buffer.Ctx{B: b, Assume: func(*term.Term) {}}
	// Arrivals every step: output backlog at end = 3.
	for _, a := range c.Arrivals {
		sv.Assert(a.Valid)
	}
	out := c.Steps[2].Buffers["b"].BacklogP(ctx)
	sv.Assert(b.Neq(out, b.IntConst(3)))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("output accumulation wrong: %v", got)
	}
}

func TestSnapshotsPerStep(t *testing.T) {
	src := `p(buffer a, buffer b) { global int g; g = g + 2; move-p(a, b, 1); assert(true); }`
	c, sv := compile(t, src, Options{T: 3})
	_ = sv
	if len(c.Steps) != 3 {
		t.Fatalf("steps = %d", len(c.Steps))
	}
	for i, snap := range c.Steps {
		g := snap.Vars["g"]
		if g.Kind() != term.KindIntConst || g.IntVal() != int64(2*(i+1)) {
			t.Errorf("step %d: g = %s, want %d", i, g, 2*(i+1))
		}
	}
}

func TestHavocRecorded(t *testing.T) {
	src := `p(buffer a, buffer b) {
		local int x; local bool q;
		havoc x;
		havoc q;
		assume(x >= 0);
		move-p(a, b, x);
		assert(true);
	}`
	c, _ := compile(t, src, Options{T: 2})
	if len(c.Havocs) != 4 {
		t.Fatalf("havocs = %d, want 4 (2 per step)", len(c.Havocs))
	}
	if c.Havocs[0].Name != "x" || c.Havocs[1].Name != "q" {
		t.Errorf("havoc order: %v, %v", c.Havocs[0].Name, c.Havocs[1].Name)
	}
	if c.Havocs[1].Var.Sort() != term.Bool {
		t.Error("bool havoc should be boolean-sorted")
	}
}

func TestPopFromEmptyListYieldsZero(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global list l;
		local int x;
		x = 99;
		x = l.pop_front();
		assert(x == 0);
		assert(l.empty());
		move-p(a, b, 1);
	}`
	c, sv := compile(t, src, Options{T: 1})
	prove(t, c, sv, c.AssertHolds(), "empty pop semantics")
}

func TestListOverflowDropsSilently(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global list l;
		for (i in 0..10) { l.push_back(i); }
		assert(l.size() == 4);
		assert(l.has(3));
		assert(!l.has(4));
		move-p(a, b, 1);
	}`
	c, sv := compile(t, src, Options{T: 1, Bounds: typecheck.Bounds{ListCap: 4}})
	prove(t, c, sv, c.AssertHolds(), "list capacity clamp")
}

func readOnlyCtx(b *term.Builder) *buffer.Ctx {
	return &buffer.Ctx{B: b, Assume: func(*term.Term) {}}
}

// Moves where BOTH endpoints are symbolically indexed case-split over the
// full cross product of instances.
func TestSymbolicSrcAndDstMove(t *testing.T) {
	src := `p(in buffer[2] a, out buffer[2] outs) {
		local int i; local int j;
		havoc i;
		havoc j;
		assume(i >= 0); assume(i <= 1);
		assume(j >= 0); assume(j <= 1);
		move-p(a[i], outs[j], 1);
		assert(backlog-p(outs[0]) + backlog-p(outs[1]) <= t + 1);
	}`
	c, sv := compile(t, src, Options{T: 2})
	prove(t, c, sv, c.AssertHolds(), "cross-product move")
}

// A move between overlapping symbolic references that aliases the same
// instance at run time is a no-op rather than corruption.
func TestAliasedSymbolicMoveIsNoop(t *testing.T) {
	src := `p(in buffer[2] a, out buffer ob) {
		local int i; local int j;
		i = 0;
		havoc j;
		assume(j == 0);
		move-p(a[i], a[j], 1);
		move-p(a[0], ob, backlog-p(a[0]));
		assert(backlog-p(a[1]) >= 0);
	}`
	c, sv := compile(t, src, Options{T: 1})
	for _, a := range c.Assumes {
		sv.Assert(a)
	}
	b := c.B
	ctx := readOnlyCtx(b)
	// With one arrival at a[0], the self-move must not lose the packet:
	// it ends up in ob via the second move.
	for _, arr := range c.Arrivals {
		if arr.Buffer == "a[0]" {
			sv.Assert(arr.Valid)
		} else {
			sv.Assert(b.Not(arr.Valid))
		}
	}
	ob := c.Steps[0].Buffers["ob"].BacklogP(ctx)
	sv.Assert(b.Neq(ob, b.IntConst(1)))
	if got := sv.Check(context.Background()); got != solver.Unsat {
		t.Fatalf("self-move lost or duplicated a packet: %v", got)
	}
}
