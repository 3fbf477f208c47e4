package bitblast

import (
	"testing"

	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
)

// solveValue pins vars to constants, asserts out == expr, solves and reads
// out — the harness for exhaustive small-width checks.
func evalViaSolver(t *testing.T, width int, build func(b *term.Builder) *term.Term) int64 {
	t.Helper()
	s := sat.New()
	bl := New(width, s)
	b := term.NewBuilder()
	e := build(b)
	out := b.Var("out", term.Int)
	bl.Assert(b.Eq(out, e))
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("expected sat, got %v", got)
	}
	return bl.IntValue(out)
}

func wrap(v int64, w int) int64 {
	mask := int64(1)<<uint(w) - 1
	v &= mask
	if v&(1<<uint(w-1)) != 0 {
		v -= 1 << uint(w)
	}
	return v
}

// Exhaustive 4-bit arithmetic against the reference semantics.
func TestExhaustiveArith4Bit(t *testing.T) {
	const w = 4
	for x := int64(-8); x < 8; x++ {
		for y := int64(-8); y < 8; y++ {
			x, y := x, y
			checks := []struct {
				name string
				want int64
				mk   func(b *term.Builder) *term.Term
			}{
				{"add", wrap(x+y, w), func(b *term.Builder) *term.Term {
					return b.Add(b.Var("x", term.Int), b.Var("y", term.Int))
				}},
				{"sub", wrap(x-y, w), func(b *term.Builder) *term.Term {
					return b.Sub(b.Var("x", term.Int), b.Var("y", term.Int))
				}},
				{"mul", wrap(x*y, w), func(b *term.Builder) *term.Term {
					return b.Mul(b.Var("x", term.Int), b.Var("y", term.Int))
				}},
			}
			for _, c := range checks {
				s := sat.New()
				bl := New(w, s)
				b := term.NewBuilder()
				xv, yv := b.Var("x", term.Int), b.Var("y", term.Int)
				bl.Assert(b.Eq(xv, b.IntConst(x)))
				bl.Assert(b.Eq(yv, b.IntConst(y)))
				out := b.Var("out", term.Int)
				bl.Assert(b.Eq(out, c.mk(b)))
				if got := s.Solve(); got != sat.Sat {
					t.Fatalf("%s(%d,%d): %v", c.name, x, y, got)
				}
				if got := bl.IntValue(out); got != c.want {
					t.Fatalf("%s(%d,%d) = %d, want %d", c.name, x, y, got, c.want)
				}
			}
		}
	}
}

// Exhaustive 4-bit comparisons.
func TestExhaustiveCompare4Bit(t *testing.T) {
	const w = 4
	for x := int64(-8); x < 8; x++ {
		for y := int64(-8); y < 8; y++ {
			s := sat.New()
			bl := New(w, s)
			b := term.NewBuilder()
			xv, yv := b.Var("x", term.Int), b.Var("y", term.Int)
			bl.Assert(b.Eq(xv, b.IntConst(x)))
			bl.Assert(b.Eq(yv, b.IntConst(y)))
			lt := b.Var("lt", term.Bool)
			le := b.Var("le", term.Bool)
			eq := b.Var("eq", term.Bool)
			bl.Assert(b.Iff(lt, b.Lt(xv, yv)))
			bl.Assert(b.Iff(le, b.Le(xv, yv)))
			bl.Assert(b.Iff(eq, b.Eq(xv, yv)))
			if got := s.Solve(); got != sat.Sat {
				t.Fatalf("(%d,%d): %v", x, y, got)
			}
			if bl.BoolValue(lt) != (x < y) || bl.BoolValue(le) != (x <= y) || bl.BoolValue(eq) != (x == y) {
				t.Fatalf("compare(%d,%d): lt=%v le=%v eq=%v",
					x, y, bl.BoolValue(lt), bl.BoolValue(le), bl.BoolValue(eq))
			}
		}
	}
}

func TestNegAndIte(t *testing.T) {
	got := evalViaSolver(t, 6, func(b *term.Builder) *term.Term {
		x := b.IntConst(13)
		return b.Neg(x)
	})
	if got != -13 {
		t.Errorf("neg: got %d", got)
	}
	got = evalViaSolver(t, 6, func(b *term.Builder) *term.Term {
		return b.Ite(b.Lt(b.IntConst(2), b.IntConst(3)), b.IntConst(10), b.IntConst(20))
	})
	if got != 10 {
		t.Errorf("ite: got %d", got)
	}
}

func TestRange(t *testing.T) {
	s := sat.New()
	bl := New(8, s)
	if bl.MinInt() != -128 || bl.MaxInt() != 127 {
		t.Errorf("range = [%d, %d]", bl.MinInt(), bl.MaxInt())
	}
}

func TestSharedSubtermsEncodedOnce(t *testing.T) {
	s := sat.New()
	bl := New(12, s)
	b := term.NewBuilder()
	x := b.Var("x", term.Int)
	sum := b.Add(x, b.IntConst(1))
	bl.Assert(b.Le(sum, b.IntConst(10)))
	n1 := s.NumVarsAllocated()
	if got := bl.NumTerms(); got != 5 { // x, 1, x+1, 10 and the Le
		t.Errorf("%d terms encoded, want 5", got)
	}
	// Asserting the identical term again must be free (full cache hit).
	bl.Assert(b.Le(sum, b.IntConst(10)))
	if n2 := s.NumVarsAllocated(); n2 != n1 {
		t.Errorf("identical assertion allocated %d new vars", n2-n1)
	}
	if got := bl.NumTerms(); got != 5 {
		t.Errorf("identical assertion encoded %d new terms", got-5)
	}
	// A new comparison over the same sum may allocate comparator gates,
	// but not re-blast the adder (~3 gates/bit): well under 2 vars/bit.
	bl.Assert(b.Le(b.IntConst(-10), sum))
	if n3 := s.NumVarsAllocated(); n3-n1 > 2*bl.W {
		t.Errorf("sum re-encoded: %d new vars", n3-n1)
	}
}

func TestUnsupportedWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width 1")
		}
	}()
	New(1, sat.New())
}
