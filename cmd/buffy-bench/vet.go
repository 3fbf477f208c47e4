package main

import (
	"fmt"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/ir"
	"buffy/internal/lang/sema"
	"buffy/internal/qm"
	"buffy/internal/vet"
)

// Synthetic programs the static tier decides outright — the cases where
// the pre-solve gate saves the whole solver invocation.
const benchDeadAssert = `dead(in buffer a, out buffer b) {
  move-p(a, b, 1);
  assert(backlog-p(a) <= 8);
}
`

const benchContradiction = `contra(in buffer a, out buffer b) {
  local int n;
  n = backlog-p(a);
  assume(n > 2000);
  move-p(a, b, n);
  assert(backlog-p(a) == 0);
}
`

const benchNeverHolds = `never(in buffer a, out buffer b) {
  move-p(a, b, 1);
  assert(backlog-p(a) > 1000);
}
`

// runVetExp measures the static tier against the solver across programs
// it decides (contradictions, dead and never-holding asserts) and real
// corpus queries it must pass through (the gate's overhead case). Any
// static verdict the SMT result contradicts fails the experiment — the
// same soundness contract the differential test pins.
func runVetExp() error {
	cases := []struct {
		name, src string
		mode      smtbe.Mode
		t         int
		params    map[string]int64
	}{
		{"dead-assert", benchDeadAssert, smtbe.Verify, 6, nil},
		{"contradiction", benchContradiction, smtbe.Witness, 6, nil},
		{"never-holds", benchNeverHolds, smtbe.Witness, 6, nil},
		{"fq-buggy-q", qm.FQBuggyQuerySrc, smtbe.Witness, 6, map[string]int64{"N": 3}},
		{"rr-q", qm.RRQuerySrc, smtbe.Witness, 6, map[string]int64{"N": 2}},
		{"sp-q", qm.SPQuerySrc, smtbe.Witness, 6, map[string]int64{"N": 2}},
	}

	var savedTotal, overheadTotal float64
	fmt.Printf("%-14s  %-7s  %9s  %-22s  %9s  %9s\n",
		"program", "mode", "vet", "decided", "smt", "saved")
	for _, c := range cases {
		opts := sema.Options{T: c.t, Params: c.params}

		// Best of three vet runs: the gate's cost is microseconds and a
		// single sample is mostly scheduler noise.
		var res *vet.Result
		best := time.Duration(1 << 62)
		for range 3 {
			start := time.Now()
			res = vet.Source(c.src, opts)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		v := res.Report.Verdict
		decided := v.Conclusive() && v.Reason != sema.ReasonNoAsserts

		// The solve the gate would have skipped (or precedes): run smtbe
		// directly so the measurement bypasses the gate itself.
		p, err := core.Parse(c.src)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		smtRes, err := smtbe.Check(p.Info, smtbe.Options{
			IR:   ir.Options{T: c.t, Params: c.params},
			Mode: c.mode,
		})
		if err != nil {
			return fmt.Errorf("%s: smt: %w", c.name, err)
		}
		smtMS := float64(smtRes.Duration.Microseconds()) / 1e3
		decidedCol, saved := "-", "-"
		if decided { // soundness: the static answer must match the solver's
			switch {
			case c.mode == smtbe.Verify && v.Verify == "holds" && smtRes.Status != smtbe.Holds:
				return fmt.Errorf("%s: static verify=holds but SMT says %v", c.name, smtRes.Status)
			case c.mode == smtbe.Witness && v.Witness == "no-witness" && smtRes.Status != smtbe.NoWitness:
				return fmt.Errorf("%s: static witness=no-witness but SMT says %v", c.name, smtRes.Status)
			}
			// The solver never runs: its whole solve time is saved.
			savedTotal += smtMS
			decidedCol, saved = v.Reason, fmt.Sprintf("%7.3fms", smtMS)
		} else {
			// The vet latency is pure — and tiny — overhead.
			overheadTotal += best.Seconds() * 1e3
		}
		fmt.Printf("%-14s  %-7s  %7.1fµs  %-22s  %7.3fms  %9s\n",
			c.name, c.mode, float64(best.Nanoseconds())/1e3, decidedCol, smtMS, saved)
	}
	fmt.Printf("static tier saved %.3fms of solver time; undecided queries paid %.3fms total gate overhead\n",
		savedTotal, overheadTotal)
	return nil
}
