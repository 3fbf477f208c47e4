package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

const limiter = `
limiter(buffer in0, buffer out0) {
  monitor int departed;
  local int n;
  n = backlog-p(in0);
  if (n > 1) { n = 1; }
  move-p(in0, out0, n);
  departed = departed + n;
  assert(departed <= t + 1);
}
`

func TestParseAndMetadata(t *testing.T) {
	prog, err := Parse(qm.FQBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "fq" {
		t.Errorf("name = %q", prog.Name())
	}
	if len(prog.Params()) != 1 || prog.Params()[0] != "N" {
		t.Errorf("params = %v", prog.Params())
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse("not a program"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Parse(`p(buffer a, buffer b) { x = 1; }`); err == nil {
		t.Error("expected type error")
	}
}

// checkEveryWay runs one query through Check with a single solver and
// with a two-config race. It asserts the status and tier, that race
// fields appear exactly when a race ran, and that any trace replays on
// the interpreter.
func checkEveryWay(t *testing.T, prog *Program, a Analysis, mode smtbe.Mode, want smtbe.Status, static bool) {
	t.Helper()
	for _, n := range []int{0, 2} {
		a.Portfolio = n
		pr, err := prog.Check(context.Background(), a, mode)
		if err != nil {
			t.Fatalf("%v portfolio %d: %v", mode, n, err)
		}
		if pr.Status != want || (pr.Tier == "static") != static {
			t.Errorf("%v portfolio %d: status %v tier %q, want %v (static %v)", mode, n, pr.Status, pr.Tier, want, static)
		}
		raced := n > 1 && !static
		wantRuns := 0
		if raced {
			wantRuns = n
		}
		if len(pr.Runs) != wantRuns || (pr.Winner != "") != raced {
			t.Errorf("%v portfolio %d: %d runs, winner %q; want %d runs", mode, n, len(pr.Runs), pr.Winner, wantRuns)
		}
		if !raced && pr.WallClock != pr.Duration {
			t.Errorf("%v portfolio %d: wall clock %v, want the solve's own %v", mode, n, pr.WallClock, pr.Duration)
		}
		if (want == smtbe.CounterexampleFound || want == smtbe.WitnessFound) != (pr.Trace != nil) {
			t.Errorf("%v portfolio %d: trace present %v for status %v", mode, n, pr.Trace != nil, want)
		}
		if pr.Trace == nil {
			continue
		}
		if _, diffs, err := prog.Replay(a, pr.Trace); err != nil || len(diffs) > 0 {
			t.Errorf("%v portfolio %d replay: err %v, differences %v", mode, n, err, diffs)
		}
	}
}

func TestVerifyAndWitness(t *testing.T) {
	prog, err := Parse(limiter)
	if err != nil {
		t.Fatal(err)
	}
	// The per-step invariant is interval-provable; the witness needs a
	// solver.
	checkEveryWay(t, prog, Analysis{T: 3}, smtbe.Verify, smtbe.Holds, true)
	checkEveryWay(t, prog, Analysis{T: 3}, smtbe.Witness, smtbe.WitnessFound, false)
}

// TestBoolInitializerEveryBackend: a constant bool initializer folds the
// same way in the SMT encoding, the interpreter that replays its traces
// and the Dafny generator.
func TestBoolInitializerEveryBackend(t *testing.T) {
	prog, err := Parse(`bool_init(in buffer a, out buffer b) {
  global bool on = !false;
  if (on) { move-p(a, b, 1); }
  assert(backlog-p(b) <= t);
}`)
	if err != nil {
		t.Fatal(err)
	}
	a := Analysis{T: 3}
	checkEveryWay(t, prog, a, smtbe.Verify, smtbe.CounterexampleFound, false)
	checkEveryWay(t, prog, a, smtbe.Witness, smtbe.WitnessFound, false)
	out, err := prog.GenerateDafny(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "var var_on: bool := true;") {
		t.Errorf("Dafny model does not initialize on to true:\n%s", out)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	prog, _ := Parse(limiter)
	if _, err := prog.Check(context.Background(), Analysis{T: 1, Model: "quantum"}, smtbe.Verify); err == nil {
		t.Error("expected unknown-model error")
	}
}

func TestSMTLibOutput(t *testing.T) {
	prog, _ := Parse(limiter)
	out, err := prog.SMTLib(Analysis{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(set-logic QF_LIA)", "(check-sat)", "(assert"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestGenerateDafnyThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.RRSrc)
	out, err := prog.GenerateDafny(Analysis{T: 2, Params: map[string]int64{"N": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "method rr_T2(") {
		t.Error("missing generated method")
	}
}

func TestVerifyDafnyThroughFacade(t *testing.T) {
	prog, _ := Parse(limiter)
	res, err := prog.VerifyDafny(context.Background(), Analysis{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || len(res.VCs) != 3 {
		t.Errorf("verified=%v VCs=%d", res.Verified, len(res.VCs))
	}
}

func TestSynthesizeThroughFacade(t *testing.T) {
	prog, _ := Parse(`p(buffer a, buffer b) {
		move-p(a, b, 1);
		if (t == T - 1) { assert(backlog-p(b) == T); }
	}`)
	res, err := prog.Synthesize(context.Background(), Analysis{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Workload) == 0 {
		t.Errorf("found=%v workload=%v", res.Found, res.Workload)
	}
}

func TestProveForAllHorizonsThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.PathServerSrc)
	bound := func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
		b := ctx.B
		return b.Le(m.Var("tokens"), b.IntConst(4))
	}
	res, err := prog.ProveForAllHorizons(context.Background(), Analysis{Params: map[string]int64{"C": 2, "B": 2}, Model: "count"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Error("token bound should prove")
	}
}

func TestInferInvariantsThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.PathServerSrc)
	res, err := prog.InferInvariants(context.Background(), Analysis{Params: map[string]int64{"C": 2, "B": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) == 0 {
		t.Error("expected surviving invariants")
	}
}

// TestBackendsTraceTheirWork: the Dafny-style verifier, k-induction and
// Houdini record compile, bitblast and search spans in the caller's
// trace, and a cancelled ctx stops each of them before any search. Each
// assertion batch opens a bitblast span of its own, and each check opens
// one search span, plus a bitblast span when it blasts a fresh
// assumption (every verifier and Houdini check does; k-induction checks
// assume nothing). The verifier's bitblast spans sum to its clauses.
func TestBackendsTraceTheirWork(t *testing.T) {
	lim, err := Parse(limiter)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Parse(qm.PathServerSrc)
	if err != nil {
		t.Fatal(err)
	}
	pa := Analysis{Params: map[string]int64{"C": 2, "B": 2}}
	bound := func(m *ir.Machine, rc *buffer.Ctx) *term.Term {
		return rc.B.Le(m.Var("tokens"), rc.B.IntConst(4))
	}
	// Each run returns the clauses its one solver holds, or -1 when it
	// spreads its work over several solvers.
	runs := []struct {
		name    string
		batches int
		assumes bool
		run     func(context.Context) (int, error)
	}{
		{"VerifyDafny", 1, true, func(ctx context.Context) (int, error) {
			res, err := lim.VerifyDafny(ctx, Analysis{T: 3})
			if err != nil {
				return 0, err
			}
			return res.NumClauses, nil
		}},
		{"ProveForAllHorizons", 2, false, func(ctx context.Context) (int, error) {
			_, err := ps.ProveForAllHorizons(ctx, pa, bound)
			return -1, err
		}},
		{"InferInvariants", 1, true, func(ctx context.Context) (int, error) {
			_, err := ps.InferInvariants(ctx, pa)
			return -1, err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			tr := telemetry.NewTrace(r.name)
			clauses, err := r.run(telemetry.WithTrace(context.Background(), tr))
			if err != nil {
				t.Fatal(err)
			}
			n := spanCounts(tr)
			if n["compile"] == 0 || n["search"] == 0 {
				t.Fatalf("spans %v: want compile and search", n)
			}
			want := r.batches
			if r.assumes {
				want += n["search"]
			}
			if n["bitblast"] != want {
				t.Errorf("%d bitblast spans for %d batches and %d checks, want %d", n["bitblast"], r.batches, n["search"], want)
			}
			if got := tr.Work()["bitblast.clauses"]; clauses >= 0 && got != int64(clauses) {
				t.Errorf("bitblast spans sum to %d clauses, result has %d", got, clauses)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			tr = telemetry.NewTrace(r.name)
			if _, err := r.run(telemetry.WithTrace(ctx, tr)); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: %v, want context.Canceled", err)
			}
			if n := spanCounts(tr)["search"]; n != 0 {
				t.Errorf("cancelled run opened %d search spans", n)
			}
		})
	}
}

// spanCounts counts the trace's spans by name, nested ones included.
func spanCounts(tr *telemetry.Trace) map[string]int {
	n := map[string]int{}
	var walk func([]*telemetry.SpanView)
	walk = func(views []*telemetry.SpanView) {
		for _, v := range views {
			n[v.Name]++
			walk(v.Spans)
		}
	}
	walk(tr.Snapshot().Spans)
	return n
}

func TestSimulateAndReplayRoundTrip(t *testing.T) {
	prog, _ := Parse(qm.FQBuggyQuerySrc)
	a := Analysis{T: 6, Params: map[string]int64{"N": 3}}
	res, err := prog.Check(context.Background(), a, smtbe.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	_, diffs, err := prog.Replay(a, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) > 0 {
		t.Errorf("replay differences: %v", diffs)
	}
}
