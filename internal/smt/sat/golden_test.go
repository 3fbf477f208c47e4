package sat

import (
	"fmt"
	"testing"

	"buffy/internal/smt/cnf"
)

// goldenSeeds are the loadHardRandom3SAT seeds of the golden Stats runs.
// At 160 variables (ratio 4.26) every diversified config learns past its
// learnt-DB limit on each of them, so every run exercises reduceDB.
var goldenSeeds = []uint64{0x9e3779b97f4a7c15, 0x2545f4914f6cdd1d, 0xdeadbeefcafef00d}

const goldenVars, goldenClauses = 160, 681

type goldenRun struct {
	status Status
	stats  Stats
}

// goldenStats pins the complete search effort, Removed and LearntBytes
// included, of every diversified config on every golden seed. A storage
// or bookkeeping change in the solver must leave all of it unchanged;
// only a deliberate change to the search itself may move it, and then
// this table is regenerated in the same change.
var goldenStats = map[string]goldenRun{
	"classic/7c15":      {Sat, Stats{Conflicts: 2188, Decisions: 2722, Propagations: 76626, Restarts: 13, Learnt: 2188, Removed: 1289, LearntBytes: 87260}},
	"classic/dd1d":      {Sat, Stats{Conflicts: 2149, Decisions: 2648, Propagations: 70239, Restarts: 13, Learnt: 2149, Removed: 1289, LearntBytes: 82064}},
	"classic/f00d":      {Unsat, Stats{Conflicts: 2429, Decisions: 2917, Propagations: 78062, Restarts: 14, Learnt: 2420, Removed: 1289, LearntBytes: 102076}},
	"geom-fast/7c15":    {Sat, Stats{Conflicts: 1664, Decisions: 2147, Propagations: 58045, Restarts: 19, Learnt: 1664, Removed: 614, LearntBytes: 104268}},
	"geom-fast/dd1d":    {Sat, Stats{Conflicts: 1390, Decisions: 1856, Propagations: 45728, Restarts: 18, Learnt: 1390, Removed: 614, LearntBytes: 74912}},
	"geom-fast/f00d":    {Unsat, Stats{Conflicts: 2745, Decisions: 3374, Propagations: 86617, Restarts: 22, Learnt: 2735, Removed: 1289, LearntBytes: 131428}},
	"pos-phase/7c15":    {Sat, Stats{Conflicts: 2268, Decisions: 2711, Propagations: 77360, Restarts: 13, Learnt: 2268, Removed: 1291, LearntBytes: 92020}},
	"pos-phase/dd1d":    {Sat, Stats{Conflicts: 4510, Decisions: 5515, Propagations: 148719, Restarts: 22, Learnt: 4510, Removed: 2849, LearntBytes: 158788}},
	"pos-phase/f00d":    {Unsat, Stats{Conflicts: 2316, Decisions: 2867, Propagations: 73505, Restarts: 13, Learnt: 2307, Removed: 1289, LearntBytes: 90620}},
	"random/7c15":       {Sat, Stats{Conflicts: 9212, Decisions: 11865, Propagations: 310373, Restarts: 37, Learnt: 9212, Removed: 7015, LearntBytes: 209516}},
	"random/dd1d":       {Sat, Stats{Conflicts: 7155, Decisions: 9331, Propagations: 230581, Restarts: 30, Learnt: 7155, Removed: 5819, LearntBytes: 125008}},
	"random/f00d":       {Unsat, Stats{Conflicts: 5330, Decisions: 6871, Propagations: 165831, Restarts: 28, Learnt: 5321, Removed: 3744, LearntBytes: 142108}},
	"slow-restart/7c15": {Sat, Stats{Conflicts: 3536, Decisions: 4225, Propagations: 120986, Restarts: 2, Learnt: 3536, Removed: 2031, LearntBytes: 145036}},
	"slow-restart/dd1d": {Sat, Stats{Conflicts: 2001, Decisions: 2400, Propagations: 68119, Restarts: 2, Learnt: 2001, Removed: 1290, LearntBytes: 67228}},
	"slow-restart/f00d": {Unsat, Stats{Conflicts: 2960, Decisions: 3567, Propagations: 96280, Restarts: 2, Learnt: 2951, Removed: 2032, LearntBytes: 80900}},
	"tiny-db/7c15":      {Sat, Stats{Conflicts: 1036, Decisions: 1505, Propagations: 36556, Restarts: 4, Learnt: 1036, Removed: 966, LearntBytes: 5956}},
	"tiny-db/dd1d":      {Sat, Stats{Conflicts: 3309, Decisions: 4335, Propagations: 113058, Restarts: 7, Learnt: 3309, Removed: 3042, LearntBytes: 23956}},
	"tiny-db/f00d":      {Unsat, Stats{Conflicts: 6155, Decisions: 7625, Propagations: 196972, Restarts: 8, Learnt: 6147, Removed: 5715, LearntBytes: 36256}},
}

// goldenResolve pins a warm re-solve sequence: one solver answering a
// series of assumption sets, with the cumulative Stats after each call.
var goldenResolve = []goldenRun{
	{Sat, Stats{Conflicts: 1804, Decisions: 2319, Propagations: 61289, Restarts: 11, Learnt: 1804, Removed: 1223, LearntBytes: 56852}},
	{Unsat, Stats{Conflicts: 3104, Decisions: 3849, Propagations: 104531, Restarts: 18, Learnt: 3104, Removed: 2473, LearntBytes: 57928}},
	{Sat, Stats{Conflicts: 3468, Decisions: 4325, Propagations: 116535, Restarts: 20, Learnt: 3468, Removed: 3079, LearntBytes: 34888}},
	{Unsat, Stats{Conflicts: 6006, Decisions: 7379, Propagations: 202222, Restarts: 34, Learnt: 6006, Removed: 5111, LearntBytes: 84316}},
	{Unsat, Stats{Conflicts: 10653, Decisions: 12983, Propagations: 356923, Restarts: 58, Learnt: 10653, Removed: 9481, LearntBytes: 110216}},
}

// goldenLine renders a run as the table line that would pin it, so a
// mismatch message can be pasted back when the search changes on purpose.
func goldenLine(r goldenRun) string {
	st := r.stats
	return fmt.Sprintf("{%v, Stats{Conflicts: %d, Decisions: %d, Propagations: %d, Restarts: %d, Learnt: %d, Removed: %d, LearntBytes: %d}},",
		[...]string{Unknown: "Unknown", Sat: "Sat", Unsat: "Unsat"}[r.status], st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learnt, st.Removed, st.LearntBytes)
}

// TestGoldenStats is the in-tree proof that a change to the solver's
// storage is counter-neutral: every Stats field of every diversified
// config must equal the pinned value.
func TestGoldenStats(t *testing.T) {
	cfgs := diversifiedConfigs()
	for _, name := range configNames() {
		for _, seed := range goldenSeeds {
			key := fmt.Sprintf("%s/%04x", name, seed&0xffff)
			s := NewWithOptions(cfgs[name])
			loadHardRandom3SAT(s, goldenVars, goldenClauses, seed)
			got := goldenRun{s.Solve(), s.Stats()}
			if got.stats.Removed == 0 {
				t.Errorf("%s: reduceDB never removed a clause; the run does not exercise it", key)
			}
			if want, ok := goldenStats[key]; !ok || got != want {
				t.Errorf("%s: got\n\t%q: %s", key, key, goldenLine(got))
			}
		}
	}
}

// TestGoldenResolveStats pins the cumulative Stats of one solver across a
// sequence of assumption-based solves, the warm-session usage pattern:
// learnt clauses, activities and the reduction schedule carry over from
// call to call.
func TestGoldenResolveStats(t *testing.T) {
	s := NewWithOptions(Options{LearntBase: 300})
	loadHardRandom3SAT(s, goldenVars, goldenClauses, goldenSeeds[0])
	var got []goldenRun
	for round := 0; round < 5; round++ {
		assume := []cnf.Lit{
			cnf.MkLit(cnf.Var(1+round*31%goldenVars), round%2 == 0),
			cnf.MkLit(cnf.Var(1+round*57%goldenVars), round%3 == 0),
		}
		got = append(got, goldenRun{s.SolveLimited(Limits{}, assume...), s.Stats()})
	}
	if got[len(got)-1].stats.Removed == 0 {
		t.Error("reduceDB never removed a clause across the sequence")
	}
	if len(got) != len(goldenResolve) {
		t.Errorf("ran %d rounds, %d pinned", len(got), len(goldenResolve))
	}
	for i, r := range got {
		if i >= len(goldenResolve) || r != goldenResolve[i] {
			t.Errorf("round %d: got\n\t%s", i, goldenLine(r))
		}
	}
}
