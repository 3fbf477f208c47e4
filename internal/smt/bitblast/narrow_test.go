package bitblast

import (
	"math/rand"
	"testing"

	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
)

// TestNarrowMatchesFull blasts random term DAGs over one builder twice,
// narrowed to each term's range and at full width, pins the free variables
// of both to the same values, and checks that every subterm reads the
// same value from both models.
func TestNarrowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	narrowed := 0
	for iter := range 400 {
		w := 4 + iter%9
		ops := make([]byte, 3*(4+rng.Intn(60)))
		rng.Read(ops)
		b := term.NewBuilder()
		ints, bools := buildDAG(b, w, ops)
		narrow, full := New(w, sat.New()), newBlaster(w, sat.New(), true)
		for _, bl := range []*Blaster{narrow, full} {
			for _, x := range ints {
				bl.Bits(x)
			}
			for _, p := range bools {
				bl.Bool(p)
			}
		}
		seed := rng.Int63()
		_, an := pinVars(b, narrow, rand.New(rand.NewSource(seed)))
		_, af := pinVars(b, full, rand.New(rand.NewSource(seed)))
		if narrow.s.Solve(an...) != sat.Sat || full.s.Solve(af...) != sat.Sat {
			t.Fatalf("width %d: unsat with every input pinned", w)
		}
		for _, x := range ints {
			if narrow.width(x) < w {
				narrowed++
			}
			if got, want := narrow.IntValue(x), full.IntValue(x); got != want {
				t.Fatalf("width %d, %v: narrow value %d, full-width value %d", w, x, got, want)
			}
		}
		for _, p := range bools {
			if got, want := narrow.BoolValue(p), full.BoolValue(p); got != want {
				t.Fatalf("width %d, %v: narrow value %v, full-width value %v", w, p, got, want)
			}
		}
	}
	if narrowed == 0 {
		t.Fatal("no term was narrowed, so the narrow path went untested")
	}
}

// TestIntervals checks the interval and width of terms whose bounds are
// small, wrap, or pass int64 on the way: those must get the full range.
func TestIntervals(t *testing.T) {
	const top = int64(1)<<61 - 1 // the largest 62-bit value
	cases := []struct {
		name   string
		w      int
		build  func(b *term.Builder, p, q *term.Term) *term.Term
		lo, hi int64
		width  int
	}{
		{"const", 12, func(b *term.Builder, _, _ *term.Term) *term.Term { return b.IntConst(5) }, 5, 5, 4},
		{"const wraps", 12, func(b *term.Builder, _, _ *term.Term) *term.Term { return b.IntConst(2048) }, -2048, -2048, 12},
		{"var", 12, func(b *term.Builder, _, _ *term.Term) *term.Term { return b.Var("x", term.Int) }, -2048, 2047, 12},
		{"0/1", 12, func(b *term.Builder, p, _ *term.Term) *term.Term { return bit(b, p) }, 0, 1, 2},
		{"j - count", 12, func(b *term.Builder, p, q *term.Term) *term.Term {
			return b.Sub(b.IntConst(3), b.Add(bit(b, p), bit(b, q)))
		}, 1, 3, 3},
		{"neg", 12, func(b *term.Builder, p, _ *term.Term) *term.Term {
			return b.Neg(b.Ite(p, b.IntConst(-4), b.IntConst(2)))
		}, -2, 4, 4},
		{"neg min", 12, func(b *term.Builder, p, _ *term.Term) *term.Term {
			return b.Neg(b.Ite(p, b.IntConst(-2048), b.IntConst(0)))
		}, -2048, 2047, 12},
		{"sum leaves", 12, func(b *term.Builder, p, _ *term.Term) *term.Term {
			return b.Add(b.Var("x", term.Int), bit(b, p))
		}, -2048, 2047, 12},
		{"mul", 62, func(b *term.Builder, p, q *term.Term) *term.Term {
			return b.Mul(b.Ite(p, b.IntConst(1<<20), b.IntConst(-3)), b.Ite(q, b.IntConst(1<<20), b.IntConst(5)))
		}, -3 << 20, 1 << 40, 42},
		// 2^33 * 2^31 wraps int64 to 0, but 2^29+1 times 2^31 needs 62 bits.
		{"mul passes int64", 62, func(b *term.Builder, p, q *term.Term) *term.Term {
			x := b.Ite(p, b.IntConst(1<<33), b.Ite(q, b.IntConst(1<<29+1), b.IntConst(1)))
			return b.Mul(x, b.Ite(q, b.IntConst(1<<31), b.IntConst(1)))
		}, -top - 1, top, 62},
		// The bounds of the first three terms already pass 2^62; a bound
		// clamped there would come back into range with the last three.
		{"sum passes 2^62", 62, func(b *term.Builder, p, q *term.Term) *term.Term {
			up, down := b.Ite(p, b.IntConst(top), b.IntConst(top-1)), b.Ite(q, b.IntConst(-top-1), b.IntConst(-top))
			return b.Add(up, up, up, up, up, down, down, down)
		}, -top - 1, top, 62},
	}
	for _, tc := range cases {
		b := term.NewBuilder()
		p, q := b.Var("p", term.Bool), b.Var("q", term.Bool)
		e := tc.build(b, p, q)
		s := sat.New()
		bl := New(tc.w, s)
		if lo, hi, width := bl.interval(e); lo != tc.lo || hi != tc.hi || width != tc.width {
			t.Errorf("%s: [%d, %d] in %d bits, want [%d, %d] in %d", tc.name, lo, hi, width, tc.lo, tc.hi, tc.width)
		}
		bl.Bits(e)
		for _, a := range []term.Assignment{
			{p: term.BoolValue(false), q: term.BoolValue(false)},
			{p: term.BoolValue(false), q: term.BoolValue(true)},
			{p: term.BoolValue(true), q: term.BoolValue(false)},
			{p: term.BoolValue(true), q: term.BoolValue(true)},
		} {
			if s.Solve(pin(bl.Bool(p), a[p].Bool), pin(bl.Bool(q), a[q].Bool)) != sat.Sat {
				t.Fatalf("%s: unsat under %v", tc.name, a)
			}
			// Free int variables read their model value.
			for _, v := range b.Vars() {
				if v.Sort() == term.Int {
					a[v] = term.IntValue(bl.IntValue(v))
				}
			}
			if got, want := bl.IntValue(e), term.NewEvaluator(a, tc.w).Eval(e).Int; got != want {
				t.Errorf("%s under %v: blasted value %d, want %d", tc.name, a, got, want)
			}
		}
	}
}

// bit is the 0/1 integer of p.
func bit(b *term.Builder, p *term.Term) *term.Term {
	return b.Ite(p, b.IntConst(1), b.IntConst(0))
}
