package fperfenc

import (
	"context"
	"math/rand"
	"testing"

	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

func TestLoCCountsArePositiveAndOrdered(t *testing.T) {
	fq, rr, sp := LoCFQ(), LoCRR(), LoCSP()
	if fq == 0 || rr == 0 || sp == 0 {
		t.Fatalf("line counting failed: fq=%d rr=%d sp=%d", fq, rr, sp)
	}
	if !(fq > rr && rr > sp) {
		t.Errorf("expected fq > rr > sp, got %d, %d, %d", fq, rr, sp)
	}
	// Sanity against the paper's magnitudes (FPerf FQ ~197, RR 60, SP 33):
	// the hand encodings must dwarf their Buffy sources.
	if bl := qm.CountLoC(qm.FQBuggySrc); fq < 2*bl {
		t.Errorf("FQ direct encoding (%d) should dwarf the Buffy program (%d)", fq, bl)
	}
}

// S1: the direct encodings and the Buffy pipeline must agree on the
// starvation-query verdict.
func TestVerdictAgreement(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		encode  func(sv *solver.Solver, N, T int) *Encoding
		n, T    int
		wantSat bool
	}{
		{"fq-buggy", qm.FQBuggyQuerySrc, EncodeFQ, 2, 5, true},
		{"rr", qm.RRQuerySrc, EncodeRR, 2, 6, false},
		{"sp", qm.SPQuerySrc, EncodeSP, 2, 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Direct encoding verdict.
			sv1 := solver.New(solver.Options{})
			enc := c.encode(sv1, c.n, c.T)
			sv1.Assert(enc.Assume)
			sv1.Assert(enc.Query)
			direct := sv1.Check(context.Background()) == solver.Sat

			// Buffy pipeline verdict (count model, same shape).
			info, err := qm.Load(c.src)
			if err != nil {
				t.Fatal(err)
			}
			sv2 := solver.New(solver.Options{})
			comp, err := ir.CompileContext(context.Background(), info, sv2.Builder(), ir.Options{
				T: c.T, Params: map[string]int64{"N": int64(c.n)},
				Model: buffer.CountModel{},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range comp.Assumes {
				sv2.Assert(a)
			}
			b2 := sv2.Builder()
			sv2.Assert(b2.And(comp.AssertHolds(), comp.AssertReached()))
			pipeline := sv2.Check(context.Background()) == solver.Sat

			if direct != pipeline {
				t.Fatalf("verdicts disagree: direct=%v pipeline=%v", direct, pipeline)
			}
			if direct != c.wantSat {
				t.Fatalf("verdict = %v, want %v", direct, c.wantSat)
			}
		})
	}
}

// Stronger agreement: pin identical random arrival patterns in both
// encodings and compare every queue length and the monitor, step by step.
func TestStepwiseAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name   string
		src    string
		encode func(sv *solver.Solver, N, T int) *Encoding
	}{
		{"fq", qm.FQBuggyQuerySrc, EncodeFQ},
		{"rr", qm.RRQuerySrc, EncodeRR},
		{"sp", qm.SPQuerySrc, EncodeSP},
	}
	const N, T = 2, 4
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for iter := 0; iter < 4; iter++ {
				// Random pattern; queue 1 always receives (to satisfy the
				// demand assumption in both encodings).
				plan := make([][]bool, N)
				for i := range plan {
					plan[i] = make([]bool, T)
					for tt := range plan[i] {
						plan[i][tt] = i == 1 || rng.Intn(2) == 0
					}
				}

				sv1 := solver.New(solver.Options{})
				enc := c.encode(sv1, N, T)
				b1 := sv1.Builder()
				sv1.Assert(enc.Assume)
				for i := 0; i < N; i++ {
					for tt := 0; tt < T; tt++ {
						if plan[i][tt] {
							sv1.Assert(enc.Arrive[i][tt])
						} else {
							sv1.Assert(b1.Not(enc.Arrive[i][tt]))
						}
					}
				}
				if got := sv1.Check(context.Background()); got != solver.Sat {
					t.Fatalf("iter %d: direct encoding infeasible: %v", iter, got)
				}

				info, err := qm.Load(c.src)
				if err != nil {
					t.Fatal(err)
				}
				sv2 := solver.New(solver.Options{})
				comp, err := ir.CompileContext(context.Background(), info, sv2.Builder(), ir.Options{
					T: T, Params: map[string]int64{"N": N},
					Model: buffer.CountModel{},
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range comp.Assumes {
					sv2.Assert(a)
				}
				b2 := sv2.Builder()
				for _, a := range comp.Arrivals {
					i := int64(a.Buffer[4] - '0') // "ibs[k]"
					if plan[i][a.Step] {
						sv2.Assert(a.Valid)
					} else {
						sv2.Assert(b2.Not(a.Valid))
					}
				}
				if got := sv2.Check(context.Background()); got != solver.Sat {
					t.Fatalf("iter %d: pipeline infeasible: %v", iter, got)
				}

				ctx := &buffer.Ctx{B: b2, Assume: func(*term.Term) {}}
				for tt := 0; tt < T; tt++ {
					for i := 0; i < N; i++ {
						d := sv1.IntValue(enc.QLen[i][tt])
						name := "ibs[" + string(rune('0'+i)) + "]"
						p := sv2.IntValue(comp.Steps[tt].Buffers[name].BacklogP(ctx))
						if d != p {
							t.Fatalf("iter %d step %d: qlen[%d] direct=%d pipeline=%d", iter, tt, i, d, p)
						}
					}
					d := sv1.IntValue(enc.CDeq1[tt])
					p := comp.Steps[tt].Vars["cdeq1"]
					if pv := sv2.IntValue(p); d != pv {
						t.Fatalf("iter %d step %d: cdeq1 direct=%d pipeline=%d", iter, tt, d, pv)
					}
				}
			}
		})
	}
}
