package sat

import (
	"math/rand"
	"sort"
	"testing"

	"buffy/internal/smt/cnf"
)

// diversifiedConfigs is a small set of heuristic configurations spanning
// every exposed knob; correctness tests run each of them.
func diversifiedConfigs() map[string]Options {
	return map[string]Options{
		"classic":      {},
		"pos-phase":    {InitPhase: true},
		"geom-fast":    {GeomRestarts: true, RestartBase: 10, RestartGrowth: 1.2, VarDecay: 0.90},
		"slow-restart": {RestartBase: 1000, VarDecay: 0.99},
		"random":       {RandSeed: 0x9E3779B97F4A7C15, RandFreq: 0.2},
		"tiny-db":      {LearntFrac: 0.05, LearntBase: 20, LearntGrowth: 1.05, GeomRestarts: true},
	}
}

// configNames lists diversifiedConfigs' names in sorted order.
func configNames() []string {
	names := make([]string, 0, len(diversifiedConfigs()))
	for n := range diversifiedConfigs() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestOptionsZeroValueMatchesClassic(t *testing.T) {
	got := New().Options()
	want := Options{
		RestartBase: 100, RestartGrowth: 1.5,
		VarDecay: 0.95, ClauseDecay: 0.999,
		LearntFrac: 1.0 / 3, LearntBase: 1000, LearntGrowth: 1.1,
	}
	if got != want {
		t.Fatalf("normalized defaults = %+v, want %+v", got, want)
	}
	// RandFreq without a seed must be disabled, not half-random.
	if o := NewWithOptions(Options{RandFreq: 0.5}).Options(); o.RandFreq != 0 {
		t.Fatalf("RandFreq without RandSeed: got %g, want 0", o.RandFreq)
	}
}

func TestOptionsInitPhasePolarity(t *testing.T) {
	// With no constraints every variable is decided at its initial phase.
	for _, phase := range []bool{false, true} {
		s := NewWithOptions(Options{InitPhase: phase})
		newVars(s, 4)
		s.AddClause(lit(1, false), lit(2, false)) // keep the instance non-trivial
		if got := s.Solve(); got != Sat {
			t.Fatalf("got %v, want sat", got)
		}
		// Unconstrained variables follow the configured polarity.
		if s.Value(3) != phase || s.Value(4) != phase {
			t.Errorf("InitPhase=%v: free vars decided as %v/%v", phase, s.Value(3), s.Value(4))
		}
	}
}

// TestOptionsConfigsAgainstBruteForce re-runs the randomized differential
// test under every diversified configuration: heuristics may change the
// search path, never the answer.
func TestOptionsConfigsAgainstBruteForce(t *testing.T) {
	for name, opts := range diversifiedConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for iter := 0; iter < 120; iter++ {
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

				s := NewWithOptions(opts)
				got := Unsat
				if s.LoadFormula(f) {
					got = s.Solve()
				}
				if (got == Sat) != want {
					t.Fatalf("iter %d: solver=%v bruteforce sat=%v\n%s", iter, got, want, f.Dimacs())
				}
			}
		})
	}
}

// TestOptionsGeomRestartsFire pins that the geometric schedule actually
// restarts on a conflict-heavy instance.
func TestOptionsGeomRestartsFire(t *testing.T) {
	s := NewWithOptions(Options{GeomRestarts: true, RestartBase: 5, RestartGrowth: 1.1})
	pigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(8,7): got %v, want unsat", got)
	}
	if s.Stats().Restarts == 0 {
		t.Error("geometric schedule with base 5 never restarted")
	}
}

// TestOptionsRandomBranchingDeterministic pins that a fixed seed yields a
// bit-identical search: the portfolio's differential cross-check depends
// on per-config reproducibility.
func TestOptionsRandomBranchingDeterministic(t *testing.T) {
	run := func() Stats {
		s := NewWithOptions(Options{RandSeed: 42, RandFreq: 0.3})
		pigeonhole(s, 7, 6)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(7,6): got %v, want unsat", got)
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different searches: %+v vs %+v", a, b)
	}
}

// TestCloneProblemAgrees pins the portfolio's CNF-sharing primitive:
// clones under every diversified configuration must decide exactly the
// problem the parent holds — including clones taken after the parent
// already solved (only the level-0 trail prefix may transfer, never the
// model left on the trail by a Sat result).
func TestCloneProblemAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	configs := diversifiedConfigs()
	for iter := 0; iter < 60; iter++ {
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

		parent := New()
		loaded := parent.LoadFormula(f)
		for name, opts := range configs {
			clone := parent.CloneProblem(opts)
			got := Unsat
			if loaded {
				got = clone.Solve()
			} else if clone.Solve() != Unsat {
				t.Fatalf("iter %d %s: clone of top-level-unsat parent reported sat", iter, name)
			}
			if (got == Sat) != want {
				t.Fatalf("iter %d %s: clone=%v bruteforce sat=%v\n%s", iter, name, got, want, f.Dimacs())
			}
		}
		// Solving the parent leaves its model on the trail; clones taken now
		// must still decide the original problem, not the model.
		if loaded {
			parent.Solve()
			clone := parent.CloneProblem(Options{})
			if got := clone.Solve(); (got == Sat) != want {
				t.Fatalf("iter %d: post-solve clone=%v bruteforce sat=%v\n%s", iter, got, want, f.Dimacs())
			}
			if want && clone.Stats().Decisions == 0 && nv > 1 {
				// Not an error per se, but a clone that inherits the parent's
				// full trail would decide nothing; sanity-check free search.
				continue
			}
		}
	}
}
