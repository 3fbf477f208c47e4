package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/lang/sema"
)

// deadQuery: the assert can never hold (backlog is capped at 8), so the
// static tier must answer the witness query without a solver.
const deadQuery = `dead_query(in buffer a, out buffer b) {
  move-p(a, b, 1);
  assert(backlog-p(a) > 1000);
}
`

// contradictory: no execution satisfies the assume; every solve must be
// rejected by the vet gate with the vet_rejected taxonomy.
const contradictory = `contra(in buffer a, out buffer b) {
  local int n;
  n = backlog-p(a);
  assume(n > 2000);
  move-p(a, b, n);
  assert(backlog-p(a) == 0);
}
`

func TestStaticTierAnswersWitness(t *testing.T) {
	p, err := Parse(deadQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Check(context.Background(), Analysis{T: 4}, smtbe.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != "static" {
		t.Errorf("tier = %q, want static (no solver needed)", res.Tier)
	}
	if res.Status != smtbe.NoWitness {
		t.Errorf("status = %v, want no-witness", res.Status)
	}
	if res.Solver != nil {
		t.Error("static tier must not construct a solver")
	}
}

func TestStaticTierDeclinesNoAsserts(t *testing.T) {
	p, err := Parse("noassert(in buffer a, out buffer b) {\n  move-p(a, b, 1);\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	// smtbe's established "nothing to check" error must survive the gate.
	if _, err := p.Check(context.Background(), Analysis{T: 4}, smtbe.Verify); err == nil ||
		!strings.Contains(err.Error(), "no assert") {
		t.Errorf("verify error = %v, want smtbe's no-assert error", err)
	}
}

func TestStaticTierDeclinesCancelledContext(t *testing.T) {
	p, err := Parse(deadQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.Check(ctx, Analysis{T: 4}, smtbe.Witness)
	if err == nil && res != nil && res.Tier == "static" {
		t.Error("static tier answered on a cancelled context; the solver path must report cancellation")
	}
}

func TestStaticTierDeclinesUnboundParams(t *testing.T) {
	p, err := Parse("needsn(buffer[N] ibs, buffer ob) {\n  move-p(ibs[0], ob, 1);\n  assert(backlog-p(ob) > 1000);\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	// N unbound: the ir path must report the missing binding, not a
	// static answer computed with top-valued parameters.
	if _, err := p.Check(context.Background(), Analysis{T: 4}, smtbe.Witness); err == nil {
		t.Error("want a missing-parameter error, got a result")
	}
}

func TestVetGateRejectsContradiction(t *testing.T) {
	p, err := Parse(contradictory)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"synthesize": func() error {
			_, err := p.Synthesize(context.Background(), Analysis{T: 4})
			return err
		},
		"bound": func() error {
			_, err := p.Bound(context.Background(), Analysis{T: 4})
			return err
		},
	} {
		err := run()
		var vetErr *sema.VetError
		if !errors.As(err, &vetErr) {
			t.Errorf("%s: error = %v, want *sema.VetError", name, err)
			continue
		}
		if len(vetErr.Diags) == 0 || vetErr.Diags[0].Code != sema.CodeContradiction {
			t.Errorf("%s: vet error diags = %+v, want a %s finding", name, vetErr.Diags, sema.CodeContradiction)
		}
	}
}

func TestVerifyContradictionAnsweredStatically(t *testing.T) {
	p, err := Parse(contradictory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Check(context.Background(), Analysis{T: 4}, smtbe.Verify)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != "static" {
		t.Errorf("tier = %q, want static: a vacuous verify needs no solver", res.Tier)
	}
}
