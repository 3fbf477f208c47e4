package sat

import (
	"math/rand"
	"slices"
	"testing"

	"buffy/internal/smt/cnf"
)

func lit(v int, neg bool) cnf.Lit { return cnf.MkLit(cnf.Var(v), neg) }

func newVars(s *Solver, n int) {
	for i := 0; i < n; i++ {
		s.NewVar()
	}
}

func TestEmptyIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula: got %v, want sat", got)
	}
}

func TestUnitClauses(t *testing.T) {
	s := New()
	newVars(s, 2)
	s.AddClause(lit(1, false))
	s.AddClause(lit(2, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.Value(1) {
		t.Error("x1 should be true")
	}
	if s.Value(2) {
		t.Error("x2 should be false")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	newVars(s, 1)
	s.AddClause(lit(1, false))
	if ok := s.AddClause(lit(1, true)); ok {
		t.Fatal("adding contradictory unit should report conflict")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x1, x1->x2, x2->x3, ..., x(n-1)->xn, and finally ¬xn: unsat.
	const n = 50
	s := New()
	newVars(s, n)
	s.AddClause(lit(1, false))
	for i := 1; i < n; i++ {
		s.AddClause(lit(i, true), lit(i+1, false))
	}
	s.AddClause(lit(n, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestXorChainSat(t *testing.T) {
	// x1 xor x2 = 1, x2 xor x3 = 1, x1 = true -> forced alternating.
	s := New()
	newVars(s, 3)
	addXor := func(a, b int) {
		s.AddClause(lit(a, false), lit(b, false))
		s.AddClause(lit(a, true), lit(b, true))
	}
	addXor(1, 2)
	addXor(2, 3)
	s.AddClause(lit(1, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.Value(1) || s.Value(2) || !s.Value(3) {
		t.Errorf("model = %v %v %v, want true false true", s.Value(1), s.Value(2), s.Value(3))
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes — classically
// hard unsat instances that exercise clause learning.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := func(p, h int) cnf.Var { return cnf.Var(p*holes + h + 1) }
	newVars(s, pigeons*holes)
	// Each pigeon in some hole.
	for p := 0; p < pigeons; p++ {
		c := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			c[h] = cnf.PosLit(v(p, h))
		}
		s.AddClause(c...)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(cnf.NegLit(v(p1, h)), cnf.NegLit(v(p2, h)))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want sat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	newVars(s, 3)
	// (x1 | x2) & (!x1 | x3)
	s.AddClause(lit(1, false), lit(2, false))
	s.AddClause(lit(1, true), lit(3, false))

	if got := s.Solve(lit(1, false), lit(3, true)); got != Unsat {
		t.Fatalf("assuming x1, !x3: got %v, want unsat", got)
	}
	// Solver must remain usable after an unsat-under-assumptions result.
	if got := s.Solve(lit(1, false)); got != Sat {
		t.Fatalf("assuming x1: got %v, want sat", got)
	}
	if !s.Value(1) || !s.Value(3) {
		t.Error("model should satisfy x1 and x3")
	}
	if got := s.Solve(lit(1, true), lit(2, true)); got != Unsat {
		t.Fatalf("assuming !x1, !x2: got %v, want unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions: got %v, want sat", got)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	newVars(s, 2)
	s.AddClause(lit(1, false), lit(2, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	s.AddClause(lit(1, true))
	s.AddClause(lit(2, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after narrowing: got %v, want unsat", got)
	}
}

func TestConflictLimit(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny conflict budget
	got := s.SolveLimited(Limits{MaxConflicts: 10})
	if got == Sat {
		t.Fatalf("PHP(9,8) cannot be sat; got %v", got)
	}
}

// bruteForce decides satisfiability of f by enumeration (n <= 20).
func bruteForce(f *cnf.Formula) (bool, []bool) {
	n := f.NumVars()
	for m := 0; m < 1<<uint(n); m++ {
		val := func(l cnf.Lit) bool {
			bit := m>>(uint(l.Var())-1)&1 == 1
			return bit != l.Sign()
		}
		ok := true
		for _, c := range f.Clauses {
			sat := false
			for _, l := range c {
				if val(l) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			model := make([]bool, n+1)
			for v := 1; v <= n; v++ {
				model[v] = m>>(uint(v)-1)&1 == 1
			}
			return true, model
		}
	}
	return false, nil
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nv := 3 + rng.Intn(8)
		nc := 1 + rng.Intn(5*nv)
		f := cnf.New()
		for i := 0; i < nv; i++ {
			f.NewVar()
		}
		for i := 0; i < nc; i++ {
			k := 1 + rng.Intn(3)
			c := make([]cnf.Lit, k)
			for j := range c {
				c[j] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			f.AddClause(c...)
		}
		want, _ := bruteForce(f)

		s := New()
		loadOK := s.LoadFormula(f)
		got := Unsat
		if loadOK {
			got = s.Solve()
		}
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce sat=%v\n%s", iter, got, want, f.Dimacs())
		}
		if got == Sat {
			// Verify the model satisfies every clause.
			for ci, c := range f.Clauses {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: clause %d %v unsatisfied by model", iter, ci, c)
				}
			}
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 {
		t.Error("expected some conflicts on PHP(5,4)")
	}
	if st.Decisions == 0 {
		t.Error("expected some decisions")
	}
}

func BenchmarkPigeonhole8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 9, 8)
		if got := s.Solve(); got != Unsat {
			b.Fatalf("got %v", got)
		}
	}
}

func BenchmarkRandom3SAT200(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	f := cnf.New()
	const nv = 200
	for i := 0; i < nv; i++ {
		f.NewVar()
	}
	for i := 0; i < int(4.0*nv); i++ {
		c := make([]cnf.Lit, 3)
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
		}
		f.AddClause(c...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		s.LoadFormula(f)
		s.Solve()
	}
}

// Random instances with the expensive internal invariant checker enabled:
// any missed propagation or late conflict panics.
func TestRandomWithInvariantChecking(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 60; iter++ {
		nv := 10 + rng.Intn(30)
		nc := int(3.5 * float64(nv))
		s := New()
		s.SetDebug(true)
		newVars(s, nv)
		ok := true
		for i := 0; i < nc && ok; i++ {
			c := make([]cnf.Lit, 3)
			for j := range c {
				c[j] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			ok = s.AddClause(c...)
		}
		if !ok {
			continue
		}
		s.Solve() // must not panic; verdict checked by the brute-force test
	}
}

// TestProblemClauses: the top-level facts come first, in trail order, then
// the problem clauses as AddClause simplified them; a conflict found while
// adding ends the list in the empty clause.
func TestProblemClauses(t *testing.T) {
	s := New()
	newVars(s, 4)
	s.AddClause(lit(1, false), lit(2, false), lit(2, false))
	s.AddClause(lit(3, true))
	s.AddClause(lit(3, false), lit(4, false), lit(1, true))
	s.AddClause(lit(1, false), lit(3, false)) // unit 1 under ¬3, which implies 4
	want := []cnf.Clause{
		{lit(3, true)}, {lit(1, false)}, {lit(4, false)},
		{lit(1, false), lit(2, false)},
		{lit(4, false), lit(1, true)},
	}
	got := s.ProblemClauses()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("clause %d: got %v, want %v", i, got[i], want[i])
		}
	}
	s.AddClause(lit(3, false))
	if got := s.ProblemClauses(); len(got[len(got)-1]) != 0 {
		t.Errorf("after a top-level conflict the last clause is %v, want the empty clause", got[len(got)-1])
	}
}
