package solver

import (
	"context"
	"math/rand"
	"testing"

	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
)

func newSolver() *Solver { return New(Options{Width: 12}) }

func TestTrivialSat(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Eq(x, b.IntConst(42)))
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if v := s.IntValue(x); v != 42 {
		t.Errorf("x = %d, want 42", v)
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Eq(x, b.IntConst(1)))
	s.Assert(b.Eq(x, b.IntConst(2)))
	if got := s.Check(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestArithmetic(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	y := b.Var("y", term.Int)
	// x + y == 10, x - y == 4  =>  x=7, y=3
	s.Assert(b.Eq(b.Add(x, y), b.IntConst(10)))
	s.Assert(b.Eq(b.Sub(x, y), b.IntConst(4)))
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if xv, yv := s.IntValue(x), s.IntValue(y); xv != 7 || yv != 3 {
		t.Errorf("x=%d y=%d, want 7,3", xv, yv)
	}
}

func TestMultiplication(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	y := b.Var("y", term.Int)
	// Bound the factors so the product cannot wrap at width 12: without the
	// upper bounds, wrap-around solutions like 2013*2047 ≡ 35 (mod 4096)
	// are legitimate models.
	s.Assert(b.Eq(b.Mul(x, y), b.IntConst(35)))
	s.Assert(b.Lt(b.IntConst(1), x))
	s.Assert(b.Lt(x, y))
	s.Assert(b.Lt(y, b.IntConst(36)))
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	xv, yv := s.IntValue(x), s.IntValue(y)
	if xv*yv != 35 || xv <= 1 || xv >= yv {
		t.Errorf("x=%d y=%d does not satisfy constraints", xv, yv)
	}
}

func TestSignedComparison(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Lt(x, b.IntConst(0)))
	s.Assert(b.Lt(b.IntConst(-5), x))
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if v := s.IntValue(x); v <= -5 || v >= 0 {
		t.Errorf("x = %d, want -5 < x < 0", v)
	}
}

func TestWrapAround(t *testing.T) {
	// At width 12, 2047 + 1 wraps to -2048; the solver and term.Eval must
	// agree on this.
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Eq(x, b.Add(b.IntConst(2047), b.IntConst(1))))
	// Builder folds 2047+1 to the unbounded 2048 constant; blasting wraps it.
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if v := s.IntValue(x); v != -2048 {
		t.Errorf("x = %d, want -2048", v)
	}
}

func TestIte(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	p := b.Var("p", term.Bool)
	x := b.Var("x", term.Int)
	s.Assert(b.Eq(x, b.Ite(p, b.IntConst(10), b.IntConst(20))))
	s.Assert(b.Eq(x, b.IntConst(20)))
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if s.BoolValue(p) {
		t.Error("p must be false to select 20")
	}
}

func TestCheckAssuming(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Le(b.IntConst(0), x))
	s.Assert(b.Le(x, b.IntConst(10)))

	if got := s.CheckAssuming(b.Gt(x, b.IntConst(10))); got != Unsat {
		t.Fatalf("x>10 under 0<=x<=10: got %v, want unsat", got)
	}
	// Assumptions must not stick.
	if got := s.CheckAssuming(b.Eq(x, b.IntConst(10))); got != Sat {
		t.Fatalf("x==10: got %v, want sat", got)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("no assumptions: got %v, want sat", got)
	}
}

func TestIncrementalNarrowing(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Le(b.IntConst(0), x))
	s.Assert(b.Le(x, b.IntConst(3)))
	for v := int64(3); v >= 0; v-- {
		if got := s.Check(); got != Sat {
			t.Fatalf("narrowing at %d: got %v, want sat", v, got)
		}
		// Exclude the current model value of x.
		s.Assert(b.Neq(x, b.IntConst(s.IntValue(x))))
	}
	if got := s.Check(); got != Unsat {
		t.Fatalf("after excluding all 4 values: got %v, want unsat", got)
	}
}

func TestModelSatisfiesAssertions(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	y := b.Var("y", term.Int)
	p := b.Var("p", term.Bool)
	s.Assert(b.Or(b.Eq(b.Add(x, y), b.IntConst(12)), p))
	s.Assert(b.Not(p))
	s.Assert(b.Lt(x, y))
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	m := s.Model()
	for _, a := range s.Assertions() {
		if v := term.Eval(a, m, s.Width()); !v.Bool {
			t.Errorf("assertion %s not satisfied by model", a)
		}
	}
}

func TestAssertFalse(t *testing.T) {
	s := newSolver()
	s.Assert(s.Builder().False())
	if got := s.Check(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

// randomExpr builds a random integer expression over the given variables.
func randomExpr(b *term.Builder, rng *rand.Rand, vars []*term.Term, depth int) *term.Term {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.IntConst(int64(rng.Intn(21) - 10))
	}
	x := randomExpr(b, rng, vars, depth-1)
	y := randomExpr(b, rng, vars, depth-1)
	switch rng.Intn(5) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.Mul(x, y)
	case 3:
		return b.Neg(x)
	default:
		return b.Ite(b.Le(x, y), x, y)
	}
}

// TestSolverAgreesWithEval is the core differential property: for random
// expressions e and random concrete inputs, asserting (vars = inputs) and
// (r = e) must be Sat with r equal to term.Eval's wrapped result.
func TestSolverAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = 12
	for iter := 0; iter < 60; iter++ {
		s := New(Options{Width: width})
		b := s.Builder()
		x := b.Var("x", term.Int)
		y := b.Var("y", term.Int)
		z := b.Var("z", term.Int)
		vars := []*term.Term{x, y, z}

		e := randomExpr(b, rng, vars, 4)
		asg := term.Assignment{}
		for _, v := range vars {
			val := int64(rng.Intn(41) - 20)
			asg[v] = term.IntValue(val)
			s.Assert(b.Eq(v, b.IntConst(val)))
		}
		r := b.Var("r", term.Int)
		s.Assert(b.Eq(r, e))
		if got := s.Check(); got != Sat {
			t.Fatalf("iter %d: got %v, want sat for %s", iter, got, e)
		}
		want := term.Eval(e, asg, width).Int
		if got := s.IntValue(r); got != want {
			t.Fatalf("iter %d: solver r=%d, eval=%d for %s under %v", iter, got, want, e, asg)
		}
	}
}

// TestSolverAgreesWithEvalBool does the same for boolean formulas.
func TestSolverAgreesWithEvalBool(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const width = 8
	for iter := 0; iter < 60; iter++ {
		s := New(Options{Width: width})
		b := s.Builder()
		x := b.Var("x", term.Int)
		y := b.Var("y", term.Int)
		vars := []*term.Term{x, y}

		e1 := randomExpr(b, rng, vars, 3)
		e2 := randomExpr(b, rng, vars, 3)
		var f *term.Term
		switch rng.Intn(4) {
		case 0:
			f = b.Lt(e1, e2)
		case 1:
			f = b.Le(e1, e2)
		case 2:
			f = b.Eq(e1, e2)
		default:
			f = b.And(b.Le(e1, e2), b.Neq(e1, e2))
		}
		asg := term.Assignment{}
		for _, v := range vars {
			val := int64(rng.Intn(31) - 15)
			asg[v] = term.IntValue(val)
			s.Assert(b.Eq(v, b.IntConst(val)))
		}
		p := b.Var("p", term.Bool)
		s.Assert(b.Iff(p, f))
		if got := s.Check(); got != Sat {
			t.Fatalf("iter %d: got %v, want sat", iter, got)
		}
		want := term.Eval(f, asg, width).Bool
		if got := s.BoolValue(p); got != want {
			t.Fatalf("iter %d: solver p=%v, eval=%v for %s", iter, got, want, f)
		}
	}
}

func TestStatsAndSizes(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Eq(b.Mul(x, x), b.IntConst(49)))
	s.Assert(b.Le(b.IntConst(-60), x))
	s.Assert(b.Le(x, b.IntConst(60))) // exclude wrap-around roots
	if s.Check() != Sat {
		t.Fatal("x*x=49 should be sat")
	}
	if v := s.IntValue(x); v != 7 && v != -7 {
		t.Errorf("x = %d, want ±7", v)
	}
	if s.NumClauses() == 0 || s.NumVars() == 0 {
		t.Error("expected nonzero clause/var counts")
	}
}

func BenchmarkMultiplicationFactoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(Options{Width: 12})
		bld := s.Builder()
		x := bld.Var("x", term.Int)
		y := bld.Var("y", term.Int)
		s.Assert(bld.Eq(bld.Mul(x, y), bld.IntConst(391))) // 17*23
		s.Assert(bld.Lt(bld.IntConst(1), x))
		s.Assert(bld.Lt(y, bld.IntConst(50)))
		s.Assert(bld.Le(x, y))
		if s.Check() != Sat {
			b.Fatal("expected sat")
		}
	}
}

// TestForkSharesEncoding pins the portfolio fork: forks decide the same
// asserted problem under their own heuristics, read independent models,
// and leave the parent untouched.
func TestForkSharesEncoding(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	y := b.Var("y", term.Int)
	s.Assert(b.Eq(b.Add(x, y), b.IntConst(10)))
	s.Assert(b.Eq(b.Sub(x, y), b.IntConst(4)))
	// Rule out wrap-around models so x=7, y=3 is the unique solution.
	s.Assert(b.Ge(x, b.IntConst(0)))
	s.Assert(b.Ge(y, b.IntConst(0)))

	f1 := s.Fork(sat.Options{InitPhase: true, GeomRestarts: true})
	f2 := s.Fork(sat.Options{RandSeed: 9, RandFreq: 0.2})
	for i, f := range []*Solver{f1, f2} {
		if got := f.CheckContextNoModel(context.Background()); got != Sat {
			t.Fatalf("fork %d: got %v, want sat", i, got)
		}
		f.SnapshotModel()
		if xv, yv := f.IntValue(x), f.IntValue(y); xv != 7 || yv != 3 {
			t.Errorf("fork %d: x=%d y=%d, want 7,3", i, xv, yv)
		}
		if f.NumClauses() == 0 {
			t.Errorf("fork %d inherited no clauses", i)
		}
	}
	// The parent still solves independently after its forks.
	if got := s.Check(); got != Sat {
		t.Fatalf("parent after forks: got %v, want sat", got)
	}
	if xv := s.IntValue(x); xv != 7 {
		t.Errorf("parent x = %d, want 7", xv)
	}
}

// TestForkOfUnsat pins that forks inherit top-level inconsistency.
func TestForkOfUnsat(t *testing.T) {
	s := newSolver()
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Eq(x, b.IntConst(1)))
	s.Assert(b.Eq(x, b.IntConst(2)))
	if got := s.Fork(sat.Options{}).Check(); got != Unsat {
		t.Fatalf("fork of unsat parent: got %v, want unsat", got)
	}
}

// modelSwitch asserts p => x == 1 and !p => x == 5 and returns p, x and
// the unasserted term x*x + 1, which Value evaluates structurally.
func modelSwitch(s *Solver) (p, x, y *term.Term) {
	b := s.Builder()
	p = b.Var("p", term.Bool)
	x = b.Var("x", term.Int)
	s.Assert(b.Implies(p, b.Eq(x, b.IntConst(1))))
	s.Assert(b.Implies(b.Not(p), b.Eq(x, b.IntConst(5))))
	return p, x, b.Add(b.Mul(x, x), b.IntConst(1))
}

// TestValueReadsCurrentModel re-solves one solver under different
// assumptions, as a warm session does, and checks that Value reads each
// new model rather than values cached from the previous one.
func TestValueReadsCurrentModel(t *testing.T) {
	s := newSolver()
	p, x, y := modelSwitch(s)
	b := s.Builder()
	for i, c := range []struct {
		assume *term.Term
		x, y   int64
	}{{p, 1, 2}, {b.Not(p), 5, 26}, {p, 1, 2}} {
		if got := s.CheckAssuming(c.assume); got != Sat {
			t.Fatalf("solve %d: got %v, want sat", i, got)
		}
		if xv, yv := s.IntValue(x), s.IntValue(y); xv != c.x || yv != c.y {
			t.Errorf("solve %d: x=%d x*x+1=%d, want %d, %d", i, xv, yv, c.x, c.y)
		}
	}
}

// TestForksKeepOwnEvalCache reads two forks' different models in
// interleaved order: a shared eval cache would hand one fork the other's
// values.
func TestForksKeepOwnEvalCache(t *testing.T) {
	s := newSolver()
	p, _, y := modelSwitch(s)
	b := s.Builder()
	f1, f2 := s.Fork(sat.Options{}), s.Fork(sat.Options{RandSeed: 3})
	if got := f1.CheckAssuming(p); got != Sat {
		t.Fatalf("fork 1: got %v, want sat", got)
	}
	if got := f2.CheckAssuming(b.Not(p)); got != Sat {
		t.Fatalf("fork 2: got %v, want sat", got)
	}
	for round := 0; round < 2; round++ {
		if v := f1.IntValue(y); v != 2 {
			t.Errorf("round %d: fork 1 x*x+1 = %d, want 2", round, v)
		}
		if v := f2.IntValue(y); v != 26 {
			t.Errorf("round %d: fork 2 x*x+1 = %d, want 26", round, v)
		}
	}
}
