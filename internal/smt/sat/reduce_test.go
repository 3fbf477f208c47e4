package sat

import (
	"math/rand"
	"slices"
	"testing"

	"buffy/internal/smt/cnf"
)

// insertionReduceOrder is the insertion sort reduceDB used before
// reduceOrder: LBD descending, activity ascending, each clause moved in
// front of every equal one before it.
func insertionReduceOrder(s *Solver, learnts []cref) []cref {
	ls := slices.Clone(learnts)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0; j-- {
			a, b := ls[j-1], ls[j]
			if s.lbd(a) > s.lbd(b) || (s.lbd(a) == s.lbd(b) && s.act(a) < s.act(b)) {
				break
			}
			ls[j-1], ls[j] = b, a
		}
	}
	return ls
}

// TestReduceOrderMatchesInsertionSort pins reduceDB's removal order,
// which decides the set of removed clauses, to the insertion sort it
// replaced, on lists with many (LBD, activity) ties.
func TestReduceOrderMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	acts := []float32{0, 0.5, 1, 1, 2, 1e19}
	for iter := 0; iter < 200; iter++ {
		s := New()
		newVars(s, 2)
		n := rng.Intn(120)
		for i := 0; i < n; i++ {
			c := s.alloc([]cnf.Lit{lit(1, false), lit(2, true)}, uint32(1+rng.Intn(4)))
			s.setAct(c, acts[rng.Intn(len(acts))])
			s.learnts = append(s.learnts, c)
		}
		want := insertionReduceOrder(s, s.learnts)
		if got := s.reduceOrder(); !slices.Equal(got, want) {
			t.Fatalf("iter %d (%d clauses): order\n\t%v\nwant\n\t%v", iter, n, got, want)
		}
	}
}
