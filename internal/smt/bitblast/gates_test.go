package bitblast

import (
	"testing"

	"buffy/internal/smt/cnf"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
)

// gateInputs returns a blaster over three fresh variables x, y, z and the
// eight gate inputs x, ¬x, y, ¬y, z, ¬z, true, false, with the value each
// takes when x, y and z are the bits of assignment a (x is bit 0).
func gateInputs() (*Blaster, *sat.Solver, []cnf.Var, []cnf.Lit, func(l cnf.Lit, a int) bool) {
	s := sat.New()
	bl := New(4, s)
	vars := []cnf.Var{s.NewVar(), s.NewVar(), s.NewVar()}
	var ins []cnf.Lit
	for _, v := range vars {
		ins = append(ins, cnf.PosLit(v), cnf.NegLit(v))
	}
	ins = append(ins, bl.trueLit, bl.falseLit)
	value := func(l cnf.Lit, a int) bool {
		if l.Var() == bl.trueLit.Var() {
			return l == bl.trueLit
		}
		for i, v := range vars {
			if l.Var() == v {
				return (a>>i&1 == 1) != l.Sign()
			}
		}
		panic("not a gate input")
	}
	return bl, s, vars, ins, value
}

// TestGateTruthTables builds maj and mux over every triple of inputs drawn
// from x, ¬x, y, ¬y, z, ¬z, true and false, which takes every folding path
// and every cache normalization, and checks the output literal against the
// reference function under all eight assignments of x, y and z.
func TestGateTruthTables(t *testing.T) {
	gates := []struct {
		name string
		mk   func(bl *Blaster, a, b, c cnf.Lit) cnf.Lit
		ref  func(a, b, c bool) bool
	}{
		{"maj", (*Blaster).maj, func(a, b, c bool) bool { return a && b || a && c || b && c }},
		{"mux", (*Blaster).mux, func(c, x, y bool) bool { return c && x || !c && y }},
	}
	for _, g := range gates {
		bl, s, vars, ins, value := gateInputs()
		var triples [][3]cnf.Lit
		var lits []cnf.Lit
		for _, a := range ins {
			for _, b := range ins {
				for _, c := range ins {
					triples = append(triples, [3]cnf.Lit{a, b, c})
					lits = append(lits, g.mk(bl, a, b, c))
				}
			}
		}
		for a := 0; a < 8; a++ {
			assume := make([]cnf.Lit, len(vars))
			for i, v := range vars {
				assume[i] = cnf.MkLit(v, a>>i&1 == 0)
			}
			if got := s.Solve(assume...); got != sat.Sat {
				t.Fatalf("%s: assignment %03b is %v, want sat", g.name, a, got)
			}
			for i, in := range triples {
				want := g.ref(value(in[0], a), value(in[1], a), value(in[2], a))
				if got := s.LitTrue(lits[i]); got != want {
					t.Fatalf("%s(%v, %v, %v) at x,y,z=%03b: got %v, want %v",
						g.name, in[0], in[1], in[2], a, got, want)
				}
			}
		}
	}
}

// TestGateCacheNormalization checks that permuted or negated inputs reach
// the cached gate instead of defining a new variable.
func TestGateCacheNormalization(t *testing.T) {
	bl, s, vars, _, _ := gateInputs()
	a, b, c := cnf.PosLit(vars[0]), cnf.PosLit(vars[1]), cnf.PosLit(vars[2])
	m := bl.maj(a, b, c)
	x := bl.mux(a, b, c)
	n := s.NumVarsAllocated()
	same := []struct {
		name      string
		got, want cnf.Lit
	}{
		{"maj(c,a,b)", bl.maj(c, a, b), m},
		{"maj(b,c,a)", bl.maj(b, c, a), m},
		{"maj(b,a,c)", bl.maj(b, a, c), m},
		{"maj(¬a,¬b,¬c)", bl.maj(a.Neg(), b.Neg(), c.Neg()), m.Neg()},
		{"maj(¬c,¬a,¬b)", bl.maj(c.Neg(), a.Neg(), b.Neg()), m.Neg()},
		{"mux(¬a,c,b)", bl.mux(a.Neg(), c, b), x},
		{"mux(a,¬b,¬c)", bl.mux(a, b.Neg(), c.Neg()), x.Neg()},
		{"mux(¬a,¬c,¬b)", bl.mux(a.Neg(), c.Neg(), b.Neg()), x.Neg()},
	}
	for _, tc := range same {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if got := s.NumVarsAllocated(); got != n {
		t.Errorf("normalized gates allocated %d new vars, want 0", got-n)
	}
}

// TestGateCosts pins the CNF cost of one W=12 operation over fresh
// variables, so a change to a gate's encoding fails here and not only in
// the trajectory's bitblast counters. An adder bit is two xor2 and a maj
// (3 vars, 14 clauses; the first carry is an and2 and the last is
// dropped), a comparator bit is one maj (the first an and2), and an Ite
// is one mux per bit.
func TestGateCosts(t *testing.T) {
	const w = 12
	cases := []struct {
		name          string
		build         func(b *term.Builder, x, y, c *term.Term) *term.Term
		vars, clauses int
	}{
		{"add", func(b *term.Builder, x, y, _ *term.Term) *term.Term { return b.Add(x, y) }, 34, 155},
		{"lt", func(b *term.Builder, x, y, _ *term.Term) *term.Term { return b.Lt(x, y) }, 12, 69},
		{"le", func(b *term.Builder, x, y, _ *term.Term) *term.Term { return b.Le(x, y) }, 12, 69},
		{"ite", func(b *term.Builder, x, y, c *term.Term) *term.Term { return b.Ite(c, x, y) }, 12, 72},
	}
	for _, tc := range cases {
		s := sat.New()
		bl := New(w, s)
		b := term.NewBuilder()
		x, y, c := b.Var("x", term.Int), b.Var("y", term.Int), b.Var("c", term.Bool)
		bl.Bits(x)
		bl.Bits(y)
		bl.Bool(c)
		v0, c0 := s.NumVarsAllocated(), s.NumClauses()
		if e := tc.build(b, x, y, c); e.Sort() == term.Int {
			bl.Bits(e)
		} else {
			bl.Bool(e)
		}
		if dv, dc := s.NumVarsAllocated()-v0, s.NumClauses()-c0; dv != tc.vars || dc != tc.clauses {
			t.Errorf("%s: %d vars, %d clauses; want %d, %d", tc.name, dv, dc, tc.vars, tc.clauses)
		}
	}
}
