package core

import (
	"strings"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/term"
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

func TestParseFileMultiple(t *testing.T) {
	progs, err := ParseFile(qm.DelaySrc + "\n" + qm.SPSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || progs[0].Name() != "delay" || progs[1].Name() != "sp" {
		t.Fatalf("got %d programs", len(progs))
	}
}

func TestVerifyAndWitness(t *testing.T) {
	prog, err := Parse(limiter)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Verify(Analysis{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.Holds {
		t.Errorf("verify: %v", res.Status)
	}
	w, err := prog.FindWitness(Analysis{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Status != smtbe.WitnessFound {
		t.Errorf("witness: %v", w.Status)
	}
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
	for _, run := range []struct {
		check func(Analysis) (*smtbe.Result, error)
		want  smtbe.Status
	}{
		{prog.Verify, smtbe.CounterexampleFound},
		{prog.FindWitness, smtbe.WitnessFound},
	} {
		res, err := run.check(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != run.want || res.Trace == nil {
			t.Fatalf("status = %v (trace %v), want %v with a trace", res.Status, res.Trace != nil, run.want)
		}
		if _, diffs, err := prog.Replay(a, res.Trace); err != nil || len(diffs) > 0 {
			t.Errorf("%v replay: err %v, differences %v", run.want, err, diffs)
		}
	}
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
	if _, err := prog.Verify(Analysis{T: 1, Model: "quantum"}); err == nil {
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
	res, err := prog.VerifyDafny(Analysis{T: 3})
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
	res, err := prog.SynthesizeWorkload(Analysis{T: 2})
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
	res, err := prog.ProveForAllHorizons(Analysis{Params: map[string]int64{"C": 2, "B": 2}, Model: "count"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Error("token bound should prove")
	}
}

func TestInferInvariantsThroughFacade(t *testing.T) {
	prog, _ := Parse(qm.PathServerSrc)
	res, err := prog.InferInvariants(Analysis{Params: map[string]int64{"C": 2, "B": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) == 0 {
		t.Error("expected surviving invariants")
	}
}

func TestSimulateAndReplayRoundTrip(t *testing.T) {
	prog, _ := Parse(qm.FQBuggyQuerySrc)
	a := Analysis{T: 6, Params: map[string]int64{"N": 3}}
	res, err := prog.FindWitness(a)
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
