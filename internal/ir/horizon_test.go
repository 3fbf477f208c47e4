package ir

import (
	"context"
	"testing"

	"buffy/internal/smt/solver"
)

func scan(t *testing.T, src string) HorizonUse {
	t.Helper()
	return ScanHorizon(load(t, src))
}

func TestScanHorizon(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want HorizonUse
	}{
		{"no-use", `p(buffer a, buffer b) {
			move-p(a, b, 1);
			assert(backlog-p(a) >= 0);
		}`, HorizonNone},
		{"t-only", `p(buffer a, buffer b) {
			move-p(a, b, 1);
			if (t == 2) { assert(backlog-p(b) <= 3); }
		}`, HorizonNone},
		{"guarded-query", `p(buffer a, buffer b) {
			monitor int c;
			move-p(a, b, 1);
			c = c + 1;
			if (t == T - 1) { assert(c <= T); }
		}`, HorizonTerm},
		{"assert-arith", `p(buffer a, buffer b) {
			move-p(a, b, 1);
			assert(backlog-p(b) <= T * 2);
		}`, HorizonTerm},
		{"loop-bound", `p(buffer a, buffer b) {
			global int total;
			for (i in 0..T) do { total = total + 1; }
			move-p(a, b, 1);
			assert(total >= 0);
		}`, HorizonConst},
		{"array-size", `p(buffer a, buffer b) {
			global int[T] slots;
			move-p(a, b, 1);
			slots[0] = 1;
			assert(slots[0] == 1);
		}`, HorizonConst},
		{"division", `p(buffer a, buffer b) {
			local int half;
			half = T / 2;
			move-p(a, b, 1);
			assert(backlog-p(b) >= 0);
		}`, HorizonConst},
		// Const use dominates: the program also reads T in a guard, but
		// the loop bound is what forces per-horizon compilation.
		{"mixed", `p(buffer a, buffer b) {
			global int total;
			for (i in 0..T) do { total = total + 1; }
			move-p(a, b, 1);
			if (t == T - 1) { assert(total >= 0); }
		}`, HorizonConst},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := scan(t, tc.src); got != tc.want {
				t.Fatalf("ScanHorizon = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSymbolicTConstPositionRejected: compiling with SymbolicT when T
// appears in a constant position must fail loudly, not mis-encode.
func TestSymbolicTConstPositionRejected(t *testing.T) {
	src := `p(buffer a, buffer b) {
		global int total;
		for (i in 0..T) do { total = total + 1; }
		move-p(a, b, 1);
		assert(total >= 0);
	}`
	sv := solver.New(solver.Options{})
	_, cerr := CompileContext(context.Background(), load(t, src), sv.Builder(), Options{T: 3, SymbolicT: true})
	if cerr == nil {
		t.Fatal("Compile with SymbolicT should reject T in a loop bound")
	}
}
