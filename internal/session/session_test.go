package session_test

import (
	"context"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/interp"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/session"
	"buffy/internal/smt/solver"
)

func load(t *testing.T, src string) *typecheck.Info {
	t.Helper()
	info, err := qm.Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return info
}

// corpusCase is one (model, params, mode) family the differential tests
// sweep. The query models guard their assert by t == T - 1 — exactly the
// class the old constant-T deepening answered wrongly.
type corpusCase struct {
	name   string
	src    string
	params map[string]int64
	mode   smtbe.Mode
	maxT   int
}

func corpus() []corpusCase {
	return []corpusCase{
		{"fq-buggy-witness", qm.FQBuggyQuerySrc, map[string]int64{"N": 3}, smtbe.Witness, 5},
		{"fq-fixed-witness", qm.FQFixedQuerySrc, map[string]int64{"N": 3}, smtbe.Witness, 4},
		{"rr-witness", qm.RRQuerySrc, map[string]int64{"N": 2}, smtbe.Witness, 4},
		{"sp-witness", qm.SPQuerySrc, map[string]int64{"N": 3}, smtbe.Witness, 4},
		{"sp-verify", qm.SPQuerySrc, map[string]int64{"N": 2}, smtbe.Verify, 3},
		{"shaper-verify", qm.ShaperSrc, map[string]int64{"RATE": 2, "BURST": 3}, smtbe.Verify, 4},
	}
}

// TestWarmMatchesColdCorpus is the differential guarantee: every verdict
// a warm session produces at horizon k equals a cold compile-and-solve at
// T = k, across the corpus, and warm traces replay cleanly on the
// concrete interpreter.
func TestWarmMatchesColdCorpus(t *testing.T) {
	for _, tc := range corpus() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			info := load(t, tc.src)
			sess, err := session.New(info, session.Options{
				IR: ir.Options{T: tc.maxT, Params: tc.params},
			})
			if err != nil {
				t.Fatalf("session.New: %v", err)
			}
			for T := 1; T <= tc.maxT; T++ {
				warm, err := sess.Solve(context.Background(), session.Query{Mode: tc.mode, T: T})
				if err != nil {
					t.Fatalf("warm T=%d: %v", T, err)
				}
				cold, err := smtbe.Check(info, smtbe.Options{
					IR: ir.Options{T: T, Params: tc.params}, Mode: tc.mode,
				})
				if err != nil {
					t.Fatalf("cold T=%d: %v", T, err)
				}
				if warm.Status != cold.Status {
					t.Fatalf("T=%d: warm %v != cold %v", T, warm.Status, cold.Status)
				}
				if warm.Trace != nil {
					if warm.Trace.T != T {
						t.Fatalf("T=%d: warm trace spans %d steps", T, warm.Trace.T)
					}
					m, err := interp.Replay(info, interp.Options{T: T, Params: tc.params}, warm.Trace)
					if err != nil {
						t.Fatalf("T=%d: replay: %v", T, err)
					}
					if diffs := interp.Diff(m, warm.Trace); len(diffs) > 0 {
						t.Fatalf("T=%d: warm trace diverges on replay: %v", T, diffs)
					}
				}
			}
		})
	}
}

// TestModesInterleaved: one session answers Verify and Witness queries at
// out-of-order horizons; every answer still matches a cold solve. This is
// the "retractable per-query assumptions" property — nothing any query
// does sticks to the session.
func TestModesInterleaved(t *testing.T) {
	info := load(t, qm.RRQuerySrc)
	params := map[string]int64{"N": 2}
	sess, err := session.New(info, session.Options{IR: ir.Options{T: 5, Params: params}})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	queries := []struct {
		mode smtbe.Mode
		T    int
	}{
		{smtbe.Witness, 4}, {smtbe.Verify, 2}, {smtbe.Witness, 1},
		{smtbe.Verify, 5}, {smtbe.Witness, 3}, {smtbe.Verify, 2},
	}
	for i, q := range queries {
		warm, err := sess.Solve(context.Background(), session.Query{Mode: q.mode, T: q.T})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		cold, err := smtbe.Check(info, smtbe.Options{
			IR: ir.Options{T: q.T, Params: params}, Mode: q.mode,
		})
		if err != nil {
			t.Fatalf("cold %d: %v", i, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("query %d (%v T=%d): warm %v != cold %v", i, q.mode, q.T, warm.Status, cold.Status)
		}
	}
	if sess.Queries() != int64(len(queries)) {
		t.Fatalf("Queries() = %d, want %d", sess.Queries(), len(queries))
	}
}

// TestSweepWarm: the sweep finds the same minimal horizon as per-horizon
// cold checks, and reports its verdicts in order.
func TestSweepWarm(t *testing.T) {
	info := load(t, qm.FQBuggyQuerySrc)
	params := map[string]int64{"N": 3}
	sess, err := session.New(info, session.Options{IR: ir.Options{T: 5, Params: params}})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	var streamed []session.Verdict
	sr, err := session.Sweep(context.Background(), info, sess, session.SweepOptions{
		MaxT: 5, Mode: smtbe.Witness,
		OnVerdict: func(v session.Verdict) { streamed = append(streamed, v) },
		Backend:   smtbe.Options{IR: ir.Options{Params: params}},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !sr.Warm {
		t.Error("sweep with a live session should be fully warm")
	}
	if sr.FoundAt == 0 {
		t.Fatal("fq-buggy witness should appear within 5 steps")
	}
	if sr.Final == nil || sr.Final.Trace == nil {
		t.Fatal("sweep should return the found trace")
	}
	if len(streamed) != len(sr.Verdicts) {
		t.Fatalf("streamed %d verdicts, result has %d", len(streamed), len(sr.Verdicts))
	}
	for i, v := range sr.Verdicts {
		if v.T != i+1 {
			t.Fatalf("verdict %d is for T=%d, want %d", i, v.T, i+1)
		}
	}
	// The minimal horizon must agree with the cold deepening loop.
	_, coldT, err := smtbe.FindMinHorizon(info, smtbe.Options{
		IR: ir.Options{Params: params}, Mode: smtbe.Witness,
	}, 5)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if sr.FoundAt != coldT {
		t.Fatalf("warm sweep found T=%d, cold deepening T=%d", sr.FoundAt, coldT)
	}
}

// TestSweepPerStepQueries sweeps programs whose assert holds at every
// step (no t == T - 1 guard): a per-step violation is found at its
// minimal horizon in agreement with the cold loop, and a safe per-step
// property sweeps dry to Holds.
func TestSweepPerStepQueries(t *testing.T) {
	sweep := func(src string, maxT int) *session.SweepResult {
		t.Helper()
		info := load(t, src)
		sess, err := session.New(info, session.Options{IR: ir.Options{T: maxT}})
		if err != nil {
			t.Fatalf("session.New: %v", err)
		}
		sr, err := session.Sweep(context.Background(), info, sess, session.SweepOptions{
			MaxT: maxT, Mode: smtbe.Verify,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if !sr.Warm {
			t.Error("sweep with a live session should be fully warm")
		}
		return sr
	}

	src := `p(buffer a, buffer b) {
		move-p(a, b, 1);
		assert(backlog-p(b) < 3);
	}`
	sr := sweep(src, 8)
	// backlog(b) reaches 3 after 3 serviced steps: minimal failing horizon 3.
	if sr.Final.Status != smtbe.CounterexampleFound || sr.FoundAt != 3 {
		t.Fatalf("status=%v T=%d, want counterexample at 3", sr.Final.Status, sr.FoundAt)
	}
	if len(sr.Final.Trace.Packets) < 3 {
		t.Errorf("counterexample needs >= 3 arrivals, got %d", len(sr.Final.Trace.Packets))
	}
	cold, coldT, err := smtbe.FindMinHorizon(load(t, src), smtbe.Options{Mode: smtbe.Verify}, 8)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.Status != sr.Final.Status || coldT != sr.FoundAt {
		t.Errorf("FindMinHorizon disagrees: %v at %d", cold.Status, coldT)
	}

	safe := sweep(`p(buffer a, buffer b) {
		move-p(a, b, backlog-p(a));
		assert(backlog-p(a) == 0);
	}`, 5)
	if safe.Final.Status != smtbe.Holds || safe.FoundAt != 0 || len(safe.Verdicts) != 5 {
		t.Errorf("safe property: %v, found at %d after %d horizons; want Holds through T=5",
			safe.Final.Status, safe.FoundAt, len(safe.Verdicts))
	}
}

// TestSweepEvictionDegradesCold: closing the session mid-sweep (what pool
// eviction does) degrades the remaining horizons to cold solves with
// identical verdicts — never a wrong answer, never an error.
func TestSweepEvictionDegradesCold(t *testing.T) {
	info := load(t, qm.RRQuerySrc)
	params := map[string]int64{"N": 2}
	sess, err := session.New(info, session.Options{IR: ir.Options{T: 4, Params: params}})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	warmSeen := 0
	sr, err := session.Sweep(context.Background(), info, sess, session.SweepOptions{
		MaxT: 4, Mode: smtbe.Verify,
		OnVerdict: func(v session.Verdict) {
			if v.Warm {
				warmSeen++
			}
			if v.T == 1 {
				sess.Close() // evict mid-sweep
			}
		},
		Backend: smtbe.Options{IR: ir.Options{Params: params}},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sr.Warm {
		t.Error("sweep should report degradation after eviction")
	}
	if warmSeen == 0 {
		t.Error("first horizon should have been answered warm")
	}
	// Compare every verdict against a fully cold sweep.
	cold, err := session.Sweep(context.Background(), info, nil, session.SweepOptions{
		MaxT: 4, Mode: smtbe.Verify,
		Backend: smtbe.Options{IR: ir.Options{Params: params}},
	})
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if len(sr.Verdicts) != len(cold.Verdicts) {
		t.Fatalf("degraded sweep has %d verdicts, cold has %d", len(sr.Verdicts), len(cold.Verdicts))
	}
	for i := range sr.Verdicts {
		if sr.Verdicts[i].Status != cold.Verdicts[i].Status {
			t.Fatalf("T=%d: degraded %v != cold %v",
				sr.Verdicts[i].T, sr.Verdicts[i].Status, cold.Verdicts[i].Status)
		}
	}
	if sr.FoundAt != cold.FoundAt {
		t.Fatalf("degraded FoundAt=%d, cold FoundAt=%d", sr.FoundAt, cold.FoundAt)
	}
}

// TestConstHorizonRejected: a program using T in a constant position
// cannot share one encoding; New must say so, and a nil-session sweep
// still answers it.
func TestConstHorizonRejected(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global int total;
		for (i in 0..T) do { total = total + 1; }
		move-p(a, b, 1);
		assert(total >= 0);
	}`
	info := load(t, src)
	_, err := session.New(info, session.Options{IR: ir.Options{T: 3}})
	if err != session.ErrConstHorizon {
		t.Fatalf("New = %v, want ErrConstHorizon", err)
	}
	sr, err := session.Sweep(context.Background(), info, nil, session.SweepOptions{
		MaxT: 3, Mode: smtbe.Verify,
		Backend: smtbe.Options{},
	})
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if sr.Warm {
		t.Error("nil-session sweep must not report warm")
	}
	if len(sr.Verdicts) != 3 {
		t.Fatalf("expected 3 verdicts, got %d", len(sr.Verdicts))
	}
	for _, v := range sr.Verdicts {
		if v.Status != smtbe.Holds {
			t.Fatalf("T=%d: %v, want holds", v.T, v.Status)
		}
	}
}

// TestHorizonBeyondCapacity: a query deeper than the session's capacity
// is refused with ErrHorizon (the caller's cue to solve cold), not
// answered over undersized buffers.
func TestHorizonBeyondCapacity(t *testing.T) {
	info := load(t, qm.RRQuerySrc)
	sess, err := session.New(info, session.Options{
		IR: ir.Options{T: 2, Params: map[string]int64{"N": 2}},
	})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	if _, err := sess.Solve(context.Background(), session.Query{Mode: smtbe.Witness, T: 3}); err != session.ErrHorizon {
		t.Fatalf("Solve beyond capacity = %v, want ErrHorizon", err)
	}
}

// TestClosedSessionRefuses: Solve on a closed session returns ErrClosed.
func TestClosedSessionRefuses(t *testing.T) {
	info := load(t, qm.RRQuerySrc)
	sess, err := session.New(info, session.Options{
		IR: ir.Options{T: 2, Params: map[string]int64{"N": 2}},
	})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	sess.Close()
	if _, err := sess.Solve(context.Background(), session.Query{Mode: smtbe.Verify, T: 1}); err != session.ErrClosed {
		t.Fatalf("Solve on closed session = %v, want ErrClosed", err)
	}
}

// TestFootprintGrows: the footprint estimate is positive and grows as the
// unrolling deepens — the signal the pool's memory accounting runs on.
func TestFootprintGrows(t *testing.T) {
	info := load(t, qm.RRQuerySrc)
	sess, err := session.New(info, session.Options{
		IR: ir.Options{T: 4, Params: map[string]int64{"N": 2}},
	})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	if _, err := sess.Solve(context.Background(), session.Query{Mode: smtbe.Verify, T: 1}); err != nil {
		t.Fatalf("T=1: %v", err)
	}
	small := sess.Footprint()
	if small <= 0 {
		t.Fatalf("footprint after one step = %d, want > 0", small)
	}
	if _, err := sess.Solve(context.Background(), session.Query{Mode: smtbe.Verify, T: 4}); err != nil {
		t.Fatalf("T=4: %v", err)
	}
	if big := sess.Footprint(); big <= small {
		t.Fatalf("footprint did not grow with the unrolling: %d -> %d", small, big)
	}
}

// TestSolverKnobsDontPanic: sessions built with non-default solver knobs
// (narrow width) answer consistently with an equally-configured cold
// solve — the discrimination the service's session key must preserve.
func TestSolverKnobsDontPanic(t *testing.T) {
	info := load(t, qm.ShaperSrc)
	params := map[string]int64{"RATE": 2, "BURST": 3}
	sess, err := session.New(info, session.Options{
		IR:     ir.Options{T: 3, Params: params},
		Solver: solver.Options{Width: 10},
	})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	for T := 1; T <= 3; T++ {
		warm, err := sess.Solve(context.Background(), session.Query{Mode: smtbe.Verify, T: T})
		if err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
		cold, err := smtbe.Check(info, smtbe.Options{
			IR:     ir.Options{T: T, Params: params},
			Solver: solver.Options{Width: 10},
			Mode:   smtbe.Verify,
		})
		if err != nil {
			t.Fatalf("cold T=%d: %v", T, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("T=%d: warm %v != cold %v", T, warm.Status, cold.Status)
		}
	}
}
