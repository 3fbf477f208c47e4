package dafny

import (
	"context"
	"strings"
	"testing"

	"buffy/internal/ir"
	"buffy/internal/qm"
)

func TestGenerateSimple(t *testing.T) {
	info, err := qm.Load(`p(buffer a, buffer b) {
		global int g;
		monitor int m;
		g = g + 1;
		move-p(a, b, 1);
		m = m + backlog-p(b);
		assert(backlog-p(a) >= 0);
	}`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(info, GenOptions{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"method p_T2(",
		"in_a_t0_k0_valid: bool",
		"in_a_t1_k0_flow: int",
		"requires 0 <= in_a_t0_k0_flow < 2",
		"var buf_a: seq<int> := [];",
		"var var_g: int := 0;",
		"var var_m: int := 0;",
		"// ---- time step 0 ----",
		"// ---- time step 1 ----",
		"var_g := (var_g + 1);",
		"buf_b := buf_b + take(buf_a,",
		"assert (|buf_a| >= 0);",
		"function take(s: seq<int>, n: int): seq<int>",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated Dafny missing %q\n%s", want, src)
		}
	}
}

func TestGenerateFQ(t *testing.T) {
	info, err := qm.Load(qm.FQBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(info, GenOptions{T: 3, Params: map[string]int64{"N": 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"method fq_T3(",
		"var buf_ibs_0: seq<int> := [];",
		"var buf_ibs_2: seq<int> := [];",
		"var list_nq: seq<int> := [];",
		"// unrolled i = 2",
		"var_head := if |list_nq| > 0 then list_nq[0] else 0;",
		"list_oq := list_oq + [var_head];",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated Dafny missing %q", want)
		}
	}
	// Runtime buffer index produces a case split per instance.
	if got := strings.Count(src, "if (var_head) == 0 {"); got == 0 {
		t.Error("expected case split on runtime index var_head")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	info, _ := qm.Load(qm.RRSrc)
	a, err := Generate(info, GenOptions{T: 2, Params: map[string]int64{"N": 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(info, GenOptions{T: 2, Params: map[string]int64{"N": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("generation is not deterministic")
	}
}

func TestGenerateHavoc(t *testing.T) {
	info, _ := qm.Load(`p(buffer a, buffer b) {
		local int x;
		havoc x;
		assume(x >= 0);
		move-p(a, b, x);
	}`)
	src, err := Generate(info, GenOptions{T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "var_x := *;") {
		t.Error("havoc should lower to Dafny nondeterministic assignment")
	}
	if !strings.Contains(src, "assume (var_x >= 0);") {
		t.Error("assume should lower to Dafny assume")
	}
}

func TestGenerateRejectsMoveB(t *testing.T) {
	info, _ := qm.Load(`p(buffer a, buffer b) { move-b(a, b, 3); }`)
	if _, err := Generate(info, GenOptions{T: 1}); err == nil {
		t.Error("move-b should be rejected by the Dafny generator")
	}
}

func TestGenerateMissingParam(t *testing.T) {
	info, _ := qm.Load(qm.RRSrc)
	if _, err := Generate(info, GenOptions{T: 1}); err == nil {
		t.Error("missing N should be an error")
	}
}

func TestVerifyHolds(t *testing.T) {
	info, _ := qm.Load(`p(buffer a, buffer b) {
		monitor int served;
		move-p(a, b, 1);
		served = served + 1;
		assert(served == t + 1);
	}`)
	res, err := Verify(context.Background(), info, VerifyOptions{IR: ir.Options{T: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("expected verified; VCs: %+v", res.VCs)
	}
	if len(res.VCs) != 4 {
		t.Errorf("VCs = %d, want 4 (one per step)", len(res.VCs))
	}
}

func TestVerifyFindsFailure(t *testing.T) {
	info, _ := qm.Load(`p(buffer a, buffer b) {
		assert(backlog-p(a) == 0);
		move-p(a, b, backlog-p(a));
	}`)
	res, err := Verify(context.Background(), info, VerifyOptions{IR: ir.Options{T: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Fatal("expected a failing VC")
	}
	failing := 0
	for _, vc := range res.VCs {
		if !vc.Holds {
			failing++
		}
	}
	if failing == 0 {
		t.Error("no failing VC recorded")
	}
}

// The Figure 6 workload: verify the FQ scheduler under a synthesized-style
// workload assumption, at increasing T. Here we only check it verifies and
// that VC count scales; the bench harness measures the times.
func TestVerifyFQScaling(t *testing.T) {
	info, err := qm.Load(qm.FQBuggyQuerySrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []int{3, 4} {
		res, err := Verify(context.Background(), info, VerifyOptions{IR: ir.Options{
			T: T, Params: map[string]int64{"N": 3},
		}})
		if err != nil {
			t.Fatal(err)
		}
		// The starvation assert does NOT hold for all workloads (that is
		// the bug), so verification must fail — with a concrete failing VC
		// at the final step.
		if res.Verified {
			t.Errorf("T=%d: buggy FQ should not verify", T)
		}
	}
}
