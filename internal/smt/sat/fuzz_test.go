package sat

import (
	"math/rand"
	"slices"
	"testing"

	"buffy/internal/smt/cnf"
)

// fuzzCNF is a small CNF problem decoded from fuzzer bytes.
type fuzzCNF struct {
	vars    int
	config  string
	assume  []cnf.Lit
	clauses [][]cnf.Lit
}

// A literal is one byte: the low 7 bits number the variable (taken modulo
// the variable count), the high bit negates it. A byte whose low 7 bits
// are zero ends a clause.
func decodeFuzzLit(b byte, vars int) (cnf.Lit, bool) {
	if b&0x7f == 0 {
		return cnf.LitUndef, false
	}
	return cnf.MkLit(cnf.Var(1+(int(b&0x7f)-1)%vars), b&0x80 != 0), true
}

func encodeFuzzLit(l cnf.Lit) byte {
	b := byte(l.Var())
	if l.Sign() {
		b |= 0x80
	}
	return b
}

// decodeFuzzCNF reads: variable count (1..12), config index, assumption
// count (0..3), the assumption literals, then clauses as literal runs
// ended by a terminator byte.
func decodeFuzzCNF(data []byte) (fuzzCNF, bool) {
	if len(data) < 3 || len(data) > 1024 {
		return fuzzCNF{}, false
	}
	names := configNames()
	p := fuzzCNF{vars: 1 + int(data[0])%12, config: names[int(data[1])%len(names)]}
	k := int(data[2]) % 4
	data = data[3:]
	for ; k > 0 && len(data) > 0; k-- {
		if l, ok := decodeFuzzLit(data[0], p.vars); ok {
			p.assume = append(p.assume, l)
		}
		data = data[1:]
	}
	var c []cnf.Lit
	for _, b := range data {
		if l, ok := decodeFuzzLit(b, p.vars); ok {
			c = append(c, l)
			continue
		}
		p.clauses = append(p.clauses, c)
		c = nil
	}
	if c != nil {
		p.clauses = append(p.clauses, c)
	}
	return p, true
}

func encodeFuzzCNF(p fuzzCNF) []byte {
	names := configNames()
	data := []byte{byte(p.vars - 1), byte(slices.Index(names, p.config)), byte(len(p.assume))}
	for _, l := range p.assume {
		data = append(data, encodeFuzzLit(l))
	}
	for _, c := range p.clauses {
		for _, l := range c {
			data = append(data, encodeFuzzLit(l))
		}
		data = append(data, 0)
	}
	return data
}

// formula returns the problem's clauses plus units for extra literals.
func (p fuzzCNF) formula(extra []cnf.Lit) *cnf.Formula {
	f := cnf.New()
	for i := 0; i < p.vars; i++ {
		f.NewVar()
	}
	for _, c := range p.clauses {
		f.AddClause(c...)
	}
	for _, l := range extra {
		f.AddClause(l)
	}
	return f
}

// FuzzSolve solves a small CNF under assumptions with invariant checking
// on, then again without them on the same solver, and checks both
// answers against brute force and every Sat model against the clauses.
func FuzzSolve(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	names := configNames()
	for i := 0; i < 24; i++ {
		p := fuzzCNF{vars: 3 + rng.Intn(10), config: names[i%len(names)]}
		for n := rng.Intn(6 * p.vars); n >= 0; n-- {
			c := make([]cnf.Lit, 1+rng.Intn(3))
			for j := range c {
				c[j] = cnf.MkLit(cnf.Var(1+rng.Intn(p.vars)), rng.Intn(2) == 0)
			}
			p.clauses = append(p.clauses, c)
		}
		for n := rng.Intn(4); n > 0; n-- {
			p.assume = append(p.assume, cnf.MkLit(cnf.Var(1+rng.Intn(p.vars)), rng.Intn(2) == 0))
		}
		f.Add(encodeFuzzCNF(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeFuzzCNF(data)
		if !ok {
			return
		}
		s := NewWithOptions(diversifiedConfigs()[p.config])
		s.SetDebug(true)
		s.ImportVars(p.vars)
		for _, c := range p.clauses {
			if !s.AddClause(c...) {
				break
			}
		}
		for _, assume := range [][]cnf.Lit{p.assume, nil} {
			got := s.Solve(assume...)
			want, _ := bruteForce(p.formula(assume))
			if (got == Sat) != want {
				t.Fatalf("%s, assuming %v: solver %v, brute force sat=%v", p.config, assume, got, want)
			}
			if got != Sat {
				continue
			}
			for _, c := range append(p.clauses, assume) {
				if len(c) > 0 && !slices.ContainsFunc(c, s.LitTrue) {
					t.Fatalf("%s, assuming %v: model falsifies %v", p.config, assume, c)
				}
			}
		}
	})
}
