package sema_test

// Differential soundness check: the static tier may answer a query
// only by over-approximation (Verify -> Holds, Witness -> NoWitness).
// Every verdict the analyzer produces over the testdata corpus is
// replayed against the SMT backend under identical model options; any
// disagreement is an analyzer soundness bug, not a test flake.

import (
	"strings"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/interp"
	"buffy/internal/ir"
	"buffy/internal/lang/parser"
	"buffy/internal/lang/sema"
	"buffy/internal/lang/typecheck"
)

func irOptionsFor(tc vetCase) ir.Options {
	return ir.Options{T: tc.opts.T, Params: tc.opts.Params, Bounds: tc.opts.Bounds}
}

func TestStaticVerdictsAgreeWithSMT(t *testing.T) {
	for _, tc := range vetCases {
		if tc.skipDifferential || (tc.verify == "" && tc.witness == "") {
			continue
		}
		t.Run(tc.file, func(t *testing.T) {
			prog, err := parser.Parse(readTestdata(t, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			info, err := typecheck.Check(prog)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reason == sema.ReasonNoAsserts {
				// The static verdict is vacuous (no asserts) and the
				// pre-solve gate never answers it; agreement here means
				// smtbe also classifies the program as assert-free.
				_, err := smtbe.Check(info, smtbe.Options{IR: irOptionsFor(tc), Mode: smtbe.Verify})
				if err == nil || !strings.Contains(err.Error(), "no assert") {
					t.Errorf("static tier says no-asserts, SMT says %v", err)
				}
				return
			}
			if tc.verify == "holds" {
				res, err := smtbe.Check(info, smtbe.Options{IR: irOptionsFor(tc), Mode: smtbe.Verify})
				if err != nil {
					t.Fatalf("smt verify: %v", err)
				}
				if res.Status != smtbe.Holds {
					t.Errorf("static tier says verify holds, SMT says %v", res.Status)
				}
			}
			if tc.witness == "no-witness" {
				res, err := smtbe.Check(info, smtbe.Options{IR: irOptionsFor(tc), Mode: smtbe.Witness})
				if err != nil {
					t.Fatalf("smt witness: %v", err)
				}
				if res.Status != smtbe.NoWitness {
					t.Errorf("static tier says no witness exists, SMT says %v", res.Status)
				}
			}
		})
	}
}

// TestLateWitnessVerifyNotClaimed pins the asymmetry of the witness
// semantics: late_witness.buffy's assert really is violated (steps 0-1),
// so the SMT verify query finds a counterexample — the static tier must
// NOT have claimed verify=holds for it (the shared corpus loop already
// cross-checks its no-witness claim).
func TestLateWitnessVerifyNotClaimed(t *testing.T) {
	requireCounterexample(t, "late_witness.buffy", 4)
}

// TestWidenedAssertVerifyNotClaimed: widened_assert.buffy's assert fails
// once x reaches 50 in step 0, so the corpus row's missing verify verdict
// is the right answer, not lost precision.
func TestWidenedAssertVerifyNotClaimed(t *testing.T) {
	requireCounterexample(t, "widened_assert.buffy", 1)
}

func requireCounterexample(t *testing.T, file string, horizon int) {
	t.Helper()
	prog, err := parser.Parse(readTestdata(t, file))
	if err != nil {
		t.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtbe.Check(info, smtbe.Options{IR: ir.Options{T: horizon}, Mode: smtbe.Verify})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.CounterexampleFound {
		t.Fatalf("SMT verify status = %v, want a counterexample", res.Status)
	}
}

// TestOverflowDiagnosticIsReal confirms B106's claim concretely: run the
// flagged program on the interpreter under an admissible workload (both
// assumes satisfied) and observe the destination buffer actually drop.
func TestOverflowDiagnosticIsReal(t *testing.T) {
	p, err := core.Parse(readTestdata(t, "overflow.buffy"))
	if err != nil {
		t.Fatal(err)
	}
	// Three packets per step into each input keeps every arrival inside
	// the 4-packet capacity and satisfies both backlog >= 3 assumes.
	m, err := p.Simulate(core.Analysis{T: 4, Bounds: typecheck.Bounds{BufferCap: 4, ArrivalsPerStep: 6}},
		func(step int, input string) []interp.Packet {
			return []interp.Packet{{}, {}, {}}
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Buffer("m").Dropped; got == 0 {
		t.Errorf("B106 flags a guaranteed drop at buffer m, but the simulation dropped nothing")
	}
}
