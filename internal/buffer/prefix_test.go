package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// TestMovePrefixMatchesMove checks the shift encoding of unfiltered moves
// against the rank encoding every move can use. Both run on the same
// random symbolic states (ListModel.Symbolic, its assumes asserted) with
// a symbolic count n and guard g, into a dst of another capacity and
// field count, and the solver must find no state in which any slot term
// of either buffer, a backlog or a drop counter differs. Slot terms
// include the fields and bytes of invalid slots, which later arrivals and
// the symbolic invariant (an invalid slot has 0 bytes) read.
func TestMovePrefixMatchesMove(t *testing.T) {
	ops := []struct {
		name string
		want func(s *listState, c *Ctx, n, g *term.Term) []*term.Term
	}{
		{"move-p", func(s *listState, c *Ctx, n, g *term.Term) []*term.Term { return s.wantP(c, n, nil, g) }},
		{"move-b", func(s *listState, c *Ctx, n, g *term.Term) []*term.Term { return s.wantB(c, n, nil, g) }},
		{"flush", func(s *listState, _ *Ctx, _, _ *term.Term) []*term.Term { return append([]*term.Term(nil), s.valid...) }},
	}
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 12; iter++ {
		srcCap := 1 + rng.Intn(8)
		dstCap := 1 + (srcCap+rng.Intn(7))%8 // never srcCap
		srcFields := rng.Intn(3)             // 0 normalizes to 1
		dstFields := 2
		if srcFields == 2 {
			dstFields = rng.Intn(2)
		}
		maxBytes := []int{1, 4}[rng.Intn(2)]
		for _, op := range ops {
			name := fmt.Sprintf("%s/cap%d-f%d->cap%d-f%d/bytes%d", op.name, srcCap, srcFields, dstCap, dstFields, maxBytes)
			t.Run(name, func(t *testing.T) {
				sv := solver.New(solver.Options{})
				c := testCtx(sv)
				b := sv.Builder()
				m := ListModel{}
				src := m.Symbolic(c, Config{Cap: srcCap, NumFields: srcFields, MaxBytes: maxBytes}, "src").(*listState)
				dst := m.Symbolic(c, Config{Cap: dstCap, NumFields: dstFields, MaxBytes: maxBytes}, "dst").(*listState)
				n, g := b.Var("n", term.Int), b.Var("g", term.Bool)
				want := op.want(src, c, n, g)

				rs, rd := src.Clone().(*listState), dst.Clone().(*listState)
				ps, pd := src.Clone().(*listState), dst.Clone().(*listState)
				if err := rs.move(c, rd, want); err != nil {
					t.Fatal(err)
				}
				if err := ps.movePrefix(c, pd, want); err != nil {
					t.Fatal(err)
				}
				diff := append(stateDiffs(c, "src.", rs, ps), stateDiffs(c, "dst.", rd, pd)...)
				differs := make([]*term.Term, len(diff))
				for i, d := range diff {
					differs[i] = d.t
				}
				// Some state moves a packet, so the UNSAT below is not vacuous.
				if sv.CheckAssuming(b.Lt(rs.BacklogP(c), src.BacklogP(c))) != solver.Sat {
					t.Fatal("no symbolic state moves a packet")
				}
				if sv.CheckAssuming(b.Or(differs...)) != solver.Unsat {
					for _, d := range diff {
						if sv.BoolValue(d.t) {
							t.Errorf("%s differs", d.name)
						}
					}
					t.Fatal("shift encoding differs from the rank encoding")
				}
			})
		}
	}
}

// A namedDiff is true where one observation of two states differs.
type namedDiff struct {
	name string
	t    *term.Term
}

// stateDiffs returns a namedDiff for each observation of two same-shaped
// list states: both backlogs and every slot term, the drop counter among
// them.
func stateDiffs(c *Ctx, prefix string, x, y *listState) []namedDiff {
	b := c.B
	out := []namedDiff{
		{prefix + "backlog-p", b.Neq(x.BacklogP(c), y.BacklogP(c))},
		{prefix + "backlog-b", b.Neq(x.BacklogB(c), y.BacklogB(c))},
	}
	xs, ys := x.Slots(), y.Slots()
	for i := range xs {
		out = append(out, namedDiff{prefix + xs[i].Name, b.Neq(xs[i].Term, ys[i].Term)})
	}
	return out
}

// TestMovePrefixTerms pins the terms one cap-8 unfiltered move-p builds
// between two symbolic one-field buffers, tracking all slot state and
// tracking none. The rank encoding builds 813 on the first.
func TestMovePrefixTerms(t *testing.T) {
	for _, tc := range []struct {
		live *Live
		want int
	}{{nil, 299}, {&Live{}, 143}} {
		sv := solver.New(solver.Options{})
		c := testCtx(sv)
		b := sv.Builder()
		cfg := Config{Cap: 8, NumFields: 1, MaxBytes: 4, Live: tc.live}
		src := ListModel{}.Symbolic(c, cfg, "src")
		dst := ListModel{}.Symbolic(c, cfg, "dst")
		n, g := b.Var("n", term.Int), b.Var("g", term.Bool)
		before := b.NumTerms()
		if err := src.MoveP(c, dst, n, nil, g); err != nil {
			t.Fatal(err)
		}
		if got := b.NumTerms() - before; got != tc.want {
			t.Errorf("live %+v: cap-8 unfiltered move-p built %d terms, want %d", tc.live, got, tc.want)
		}
	}
}
