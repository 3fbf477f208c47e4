package sema_test

// The testdata corpus: each file is a deliberately broken (or
// deliberately trivial) program exercising exactly one analyzer
// behaviour. Tests assert the exact diagnostic codes and source lines,
// the rejected/clean classification, and the static verdict. The
// companion differential_test.go cross-checks every static verdict
// against the SMT backend.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"buffy/internal/lang/sema"
	"buffy/internal/lang/typecheck"
	"buffy/internal/vet"
)

type wantDiag struct {
	code string
	line int
}

type vetCase struct {
	file string
	opts sema.Options
	want []wantDiag
	// rejected: error-severity findings present (solves would fail with
	// the vet_rejected class).
	rejected bool
	// static verdict expectations ("" = undecided for that mode).
	verify, witness, reason string
	// skipDifferential marks files that cannot reach the SMT backend
	// (parse/type errors) or whose options it cannot replay.
	skipDifferential bool
}

// vetCases is shared with differential_test.go.
var vetCases = []vetCase{
	{
		file: "unused_var.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B001", 3}, {"B001", 4}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "unused_buffer.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B002", 2}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "bad_horizon.buffy", opts: sema.Options{T: 0},
		want:     []wantDiag{{"B003", 2}},
		rejected: true, skipDifferential: true, // no horizon to replay
	},
	{
		file: "shallow_t.buffy", opts: sema.Options{T: 1},
		want:   []wantDiag{{"B004", 2}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "not_feed_forward.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B005", 4}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "shadow_param.buffy", opts: sema.Options{T: 4, Params: map[string]int64{"N": 2}},
		want:   []wantDiag{{"B006", 3}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "cond_true.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B101", 3}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "cond_false.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B102", 4}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "contradiction.buffy", opts: sema.Options{T: 4},
		want:     []wantDiag{{"B103", 5}},
		rejected: true,
		verify:   "holds", witness: "no-witness", reason: "assume-contradiction",
	},
	{
		file: "dead_assert.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B104", 4}, {"B104", 5}},
		verify: "holds", reason: "asserts-always-true",
	},
	{
		file: "never_assert.buffy", opts: sema.Options{T: 4},
		want:    []wantDiag{{"B105", 4}},
		witness: "no-witness", reason: "assert-never-holds",
	},
	{
		file: "asserts_unreachable.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B102", 5}},
		verify: "holds", witness: "no-witness", reason: "asserts-unreachable",
	},
	{
		file: "overflow.buffy", opts: sema.Options{T: 4, Bounds: typecheck.Bounds{BufferCap: 4, ArrivalsPerStep: 6}},
		want:   []wantDiag{{"B106", 9}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "negative_move.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B203", 3}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "bad_rate.buffy", opts: sema.Options{T: 4, Params: map[string]int64{"RATE": 0}},
		want:   []wantDiag{{"B201", 2}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "tiny_burst.buffy", opts: sema.Options{T: 4, Params: map[string]int64{"BURST": 0}},
		want:   []wantDiag{{"B202", 2}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		file: "priority_tie.buffy", opts: sema.Options{T: 4, Params: map[string]int64{"W1": 2, "W2": 2}},
		want:   []wantDiag{{"B204", 2}},
		verify: "holds", witness: "no-witness", reason: "no-asserts",
	},
	{
		// Mixed per-step outcomes (false at steps 0-1, true after): no
		// B104/B105 site diagnostic, verify undecided — but the witness
		// query is still decided, because an unconditionally-reached
		// falsified instance rules out every all-asserts-hold execution.
		file: "late_witness.buffy", opts: sema.Options{T: 4},
		want:    nil,
		witness: "no-witness", reason: "assert-never-holds",
	},
	{
		// Before constants were folded in one place, vet accepted this
		// initializer and the SMT encoding rejected it.
		file: "bool_init.buffy", opts: sema.Options{T: 4},
		want:   []wantDiag{{"B104", 6}},
		verify: "holds", reason: "asserts-always-true",
	},
	{
		file: "nonconst_init.buffy", opts: sema.Options{T: 4},
		want:     []wantDiag{{"B040", 4}},
		rejected: true, skipDifferential: true,
	},
	{
		// A widened loop's sites must be checked from a post-fixpoint:
		// the join rounds alone see x < 50 and would claim verify holds.
		file: "widened_assert.buffy", opts: sema.Options{T: 1},
		want: nil,
	},
	{
		file: "type_error.buffy", opts: sema.Options{T: 4},
		want:     []wantDiag{{"B040", 4}},
		rejected: true, skipDifferential: true,
	},
	{
		file: "parse_error.buffy", opts: sema.Options{T: 4},
		want:     []wantDiag{{"B030", 3}},
		rejected: true, skipDifferential: true,
	},
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func diagKeys(ds []wantDiag) []string {
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = fmt.Sprintf("%s@%d", d.code, d.line)
	}
	sort.Strings(keys)
	return keys
}

func TestVetTestdataCorpus(t *testing.T) {
	for _, tc := range vetCases {
		t.Run(tc.file, func(t *testing.T) {
			res := vet.Source(readTestdata(t, tc.file), tc.opts)
			rep := res.Report

			got := make([]wantDiag, len(rep.Diags))
			for i, d := range rep.Diags {
				got[i] = wantDiag{d.Code, d.Pos.Line}
				if d.Pos.Col <= 0 {
					t.Errorf("%s at line %d: column %d, want >= 1", d.Code, d.Pos.Line, d.Pos.Col)
				}
				if d.Msg == "" {
					t.Errorf("%s at line %d: empty message", d.Code, d.Pos.Line)
				}
			}
			gotKeys, wantKeys := diagKeys(got), diagKeys(tc.want)
			if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
				t.Errorf("diagnostics = %v, want %v\nreport: %+v", gotKeys, wantKeys, rep.Diags)
			}

			if rep.HasErrors() != tc.rejected {
				t.Errorf("rejected = %v, want %v", rep.HasErrors(), tc.rejected)
			}
			v := rep.Verdict
			if v.Verify != tc.verify || v.Witness != tc.witness || v.Reason != tc.reason {
				t.Errorf("verdict = {verify:%q witness:%q reason:%q}, want {%q %q %q}",
					v.Verify, v.Witness, v.Reason, tc.verify, tc.witness, tc.reason)
			}
		})
	}
}

// TestHostileLoopNestBounded: four nested 256-trip loops would run their
// body 256^4 times if every level were unrolled. The nested-unrolling cap
// widens the inner levels instead, so the pass finishes well inside its
// step budget and still decides the query.
func TestHostileLoopNestBounded(t *testing.T) {
	const src = `nest(in buffer a, out buffer b) {
  global int x;
  for (i in 0..256) do { for (j in 0..256) do {
    for (k in 0..256) do { for (l in 0..256) do { x = x + 1; } } } }
  move-p(a, b, 1);
  assert(backlog-p(b) <= 1);
}`
	res := vet.Source(src, sema.Options{T: 1})
	if steps := res.Report.Steps; steps == 0 || steps >= sema.MaxSteps {
		t.Errorf("steps = %d, want in (0, %d)", steps, sema.MaxSteps)
	}
	if v := res.Report.Verdict; v.Verify != "holds" {
		t.Errorf("verdict = %+v, want verify holds (the pass must finish)", v)
	}
}

// TestQMModelsVetClean vets every shipped queueing model: the corpus
// must produce zero error- and warning-severity findings, and each vet
// query's work, its step count, is pinned (it is an always-on pre-solve
// gate, so its cost is checked by a counter rather than a stopwatch).
func TestQMModelsVetClean(t *testing.T) {
	steps := map[string]int64{
		"aimd.buffy":           466,
		"delay.buffy":          8,
		"drr.buffy":            2927,
		"fq_buggy.buffy":       1887,
		"fq_buggy_query.buffy": 2684,
		"fq_fixed_query.buffy": 2941,
		"path_server.buffy":    276,
		"rr.buffy":             1209,
		"rr_query.buffy":       1849,
		"shaper.buffy":         180,
		"sp.buffy":             373,
		"sp_query.buffy":       841,
		"sptandem.buffy":       1376,
		"tbrl.buffy":           304,
	}
	models, err := filepath.Glob(filepath.Join("..", "..", "qm", "models", "*.buffy"))
	if err != nil || len(models) == 0 {
		t.Fatalf("no qm models found: %v", err)
	}
	for _, path := range models {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res := vet.Source(string(src), sema.Options{T: 4})
			if !res.Report.Clean() {
				t.Errorf("model is not vet-clean:\n%+v", res.Report.Diags)
			}
			want, ok := steps[filepath.Base(path)]
			if !ok {
				t.Fatalf("no pinned step count; the vet run took %d steps", res.Report.Steps)
			}
			if got := res.Report.Steps; got != want {
				t.Errorf("vet took %d steps, want %d", got, want)
			}
		})
	}
}
