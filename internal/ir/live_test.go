package ir_test

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/backend/ts"
	"buffy/internal/buffer"
	"buffy/internal/compose"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/cnf"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// encoding is what one query leaves behind: its CNF as the solver holds
// it before the search, the terms built, and the answer.
type encoding struct {
	clauses []cnf.Clause
	vars    int
	terms   int
	answer  any
}

// liveAndReference runs a query once as ir builds it, tracking only the
// slot state the programs read, and once tracking every field and size.
func liveAndReference(run func(t *testing.T) encoding, t *testing.T) (live, ref encoding) {
	t.Helper()
	live = run(t)
	restore := ir.TrackAllSlots()
	defer restore()
	return live, run(t)
}

// sameEncoding requires the same clause sequence over the same variables
// and the same answer, from no more terms.
func sameEncoding(t *testing.T, live, ref encoding) {
	t.Helper()
	if live.vars != ref.vars || len(live.clauses) != len(ref.clauses) {
		t.Fatalf("live state: %d vars, %d clauses; track-all: %d vars, %d clauses",
			live.vars, len(live.clauses), ref.vars, len(ref.clauses))
	}
	for i := range live.clauses {
		if !slices.Equal(live.clauses[i], ref.clauses[i]) {
			t.Fatalf("clause %d: live state %v, track-all %v", i, live.clauses[i], ref.clauses[i])
		}
	}
	if !reflect.DeepEqual(live.answer, ref.answer) {
		t.Fatalf("answer: live state %+v, track-all %+v", live.answer, ref.answer)
	}
	if live.terms > ref.terms {
		t.Fatalf("live state built %d terms, track-all %d", live.terms, ref.terms)
	}
}

// bmc encodes a bounded query as smtbe.EncodeContext does and answers it.
// A program without asserts is encoded with its assumes alone.
func bmc(info *typecheck.Info, opts ir.Options, mode smtbe.Mode) func(t *testing.T) encoding {
	return func(t *testing.T) encoding {
		ctx := context.Background()
		sv := solver.New(solver.Options{})
		c, err := ir.CompileContext(context.Background(), info, sv.Builder(), opts)
		if err != nil {
			t.Fatal(err)
		}
		terms := c.Assumes
		if q, err := smtbe.QueryTerms(c, mode, len(c.Steps)); err == nil {
			terms = slices.Concat(terms, q)
		}
		if err := sv.AssertAll(ctx, terms); err != nil {
			t.Fatal(err)
		}
		e := encoding{clauses: sv.Clauses(), vars: sv.NumVars(), terms: sv.Builder().NumTerms()}
		res, err := smtbe.Answer(ctx, sv, mode, c, nil, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		e.answer = []any{res.Status, res.Trace}
		return e
	}
}

// system encodes a composed system's query as compose.CheckQuery does and
// answers it with the decoded system trace.
func system(build func(b *term.Builder) (*compose.System, *term.Term, error)) func(t *testing.T) encoding {
	return func(t *testing.T) encoding {
		sv := solver.New(solver.Options{})
		b := sv.Builder()
		sys, query, err := build(b)
		if err != nil {
			t.Fatal(err)
		}
		terms := sys.Assumes()
		for _, a := range sys.Asserts() {
			terms = append(terms, b.Implies(a.Guard, a.Cond))
		}
		if err := sv.AssertAll(context.Background(), append(terms, query)); err != nil {
			t.Fatal(err)
		}
		e := encoding{clauses: sv.Clauses(), vars: sv.NumVars(), terms: b.NumTerms()}
		r := sv.Check(context.Background())
		e.answer = []any{r}
		if r == solver.Sat {
			e.answer = []any{r, sys.ExtractTrace(sv)}
		}
		return e
	}
}

// TestLiveStateKeepsCNF checks that leaving unread slot state unbuilt
// (buffer.Config.Live) changes no CNF and no answer: every shipped model
// in both modes, a filtered move, a move-b program at two byte sizes,
// composed systems and k-induction, against a track-everything reference.
func TestLiveStateKeepsCNF(t *testing.T) {
	models := []struct {
		name, src string
		params    map[string]int64
	}{
		{"fq-buggy", qm.FQBuggySrc, map[string]int64{"N": 2}},
		{"fq-buggy-query", qm.FQBuggyQuerySrc, map[string]int64{"N": 2}},
		{"fq-fixed-query", qm.FQFixedQuerySrc, map[string]int64{"N": 2}},
		{"rr", qm.RRSrc, map[string]int64{"N": 2}},
		{"rr-query", qm.RRQuerySrc, map[string]int64{"N": 2}},
		{"sp", qm.SPSrc, map[string]int64{"N": 2}},
		{"sp-query", qm.SPQuerySrc, map[string]int64{"N": 2}},
		{"drr", qm.DRRSrc, map[string]int64{"N": 2, "Q": 2}},
		{"path", qm.PathServerSrc, map[string]int64{"C": 2, "B": 2}},
		{"delay", qm.DelaySrc, nil},
		{"aimd", qm.AIMDSrc, map[string]int64{"IW": 2}},
		{"shaper", qm.ShaperSrc, map[string]int64{"RATE": 2, "BURST": 3}},
		{"tbrl", qm.TBRLSrc, map[string]int64{"RATE": 1, "BURST": 2, "C": 2}},
		{"sptandem", qm.SPTandemSrc, map[string]int64{"RH": 1, "BH": 1, "RV": 1, "BV": 1, "C": 2}},
	}
	filtered := `filt(buffer[2] ibs, buffer ob) {
		fields flow, prio;
		monitor int got;
		local int n;
		n = backlog-p(ibs[0] |> flow == 1);
		move-p(ibs[0] |> flow == 1, ob, 1);
		move-p(ibs[1], ob, 1);
		got = got + n;
		if (t == T - 1) { assert(got <= 2); }
	}`
	type tc struct {
		name string
		run  func(t *testing.T) encoding
	}
	var cases []tc
	for _, m := range models {
		info := qm.MustLoad(m.src)
		for _, mode := range []smtbe.Mode{smtbe.Verify, smtbe.Witness} {
			cases = append(cases, tc{m.name + "/" + mode.String(), bmc(info, ir.Options{T: 4, Params: m.params}, mode)})
		}
	}
	for _, mode := range []smtbe.Mode{smtbe.Verify, smtbe.Witness} {
		cases = append(cases,
			tc{"filtered-move-p/" + mode.String(), bmc(qm.MustLoad(filtered), ir.Options{T: 3, Params: map[string]int64{"N": 2}}, mode)},
			tc{"shaper-max-bytes-2/" + mode.String(), bmc(qm.MustLoad(qm.ShaperSrc), ir.Options{
				T: 4, Params: map[string]int64{"RATE": 2, "BURST": 3},
				Bounds: typecheck.Bounds{MaxBytes: 2, ArrivalsPerStep: 2},
			}, mode)})
	}
	cases = append(cases,
		tc{"cs2-list", system(func(b *term.Builder) (*compose.System, *term.Term, error) {
			c, err := compose.BuildCCAC(context.Background(), b, compose.CCACParams{C: 1, B: 1, IW: 2, K: 2, T: 4, Model: buffer.ListModel{}})
			if err != nil {
				return nil, nil, err
			}
			return c.Sys, c.Loss(b), nil
		})},
		// The upstream program reads no field, the downstream one filters
		// on one: the flush between them must carry it.
		tc{"compose-downstream-filter", system(func(b *term.Builder) (*compose.System, *term.Term, error) {
			sys := compose.NewSystem(b)
			if _, err := sys.Add(qm.MustLoad(`fwd(buffer a, buffer b) { move-p(a, b, 1); }`), ir.Options{T: 3}); err != nil {
				return nil, nil, err
			}
			sink, err := sys.Add(qm.MustLoad(`sink(buffer c, buffer d) {
				monitor int ones;
				ones = ones + backlog-p(c |> flow == 1);
				move-p(c, d, backlog-p(c));
			}`), ir.Options{T: 3})
			if err != nil {
				return nil, nil, err
			}
			if err := sys.Connect("fwd", "b", "sink", "c"); err != nil {
				return nil, nil, err
			}
			if err := sys.Run(context.Background(), 3); err != nil {
				return nil, nil, err
			}
			return sys, b.Le(b.IntConst(2), sink.Var("ones")), nil
		})},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live, ref := liveAndReference(c.run, t)
			sameEncoding(t, live, ref)
		})
	}

	// Nothing reads fq's slot fields or sizes, so most of its terms go.
	live, ref := liveAndReference(bmc(qm.MustLoad(qm.FQBuggyQuerySrc), ir.Options{T: 4, Params: map[string]int64{"N": 2}}, smtbe.Witness), t)
	if live.terms*2 > ref.terms {
		t.Errorf("fq witness: live state built %d terms, track-all %d: want at most half", live.terms, ref.terms)
	}
}

// TestLiveStateKeepsInduction checks k-induction over live slot state. Its
// step starts from symbolic buffers, which have fewer variables when fewer
// fields are tracked, so the CNFs differ by design; every verdict must not.
func TestLiveStateKeepsInduction(t *testing.T) {
	info := qm.MustLoad(qm.PathServerSrc)
	opts := ts.Options{IR: ir.Options{T: 4, Params: map[string]int64{"C": 2, "B": 2}}}
	for _, bound := range []int64{1, 4} {
		prop := func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
			return ctx.B.Le(m.Var("tokens"), ctx.B.IntConst(bound))
		}
		run := func() []any {
			ind, err := ts.ProveInvariant(context.Background(), info, opts, prop)
			if err != nil {
				t.Fatal(err)
			}
			bmc, err := ts.CheckBounded(context.Background(), info, opts, prop)
			if err != nil {
				t.Fatal(err)
			}
			return []any{ind.Proved, ind.BaseOK, ind.StepOK, bmc}
		}
		live := run()
		restore := ir.TrackAllSlots()
		ref := run()
		restore()
		if !reflect.DeepEqual(live, ref) {
			t.Errorf("tokens <= %d: live state (proved, base, step, bmc) = %v, track-all %v", bound, live, ref)
		}
		if want := bound == 4; live[0] != want {
			t.Errorf("tokens <= %d: proved = %v, want %v", bound, live[0], want)
		}
	}
}
