// Package synth implements invariant synthesis in the style §5 lays out:
// a grammar of "suitably expressive predicates on buffers" generates
// candidate interface specifications, and the Houdini algorithm [Flanagan,
// Joshi, Leino 2001] — guess-and-check with a verifier in the loop —
// iteratively prunes the candidates down to their largest inductive
// subset. The surviving invariants can be handed to the transition-system
// back-end as auxiliary lemmas, which is exactly how the paper's CCAC case
// study benefits from its path server's user-provided conditions (§6.2).
package synth

import (
	"fmt"
	"time"

	"buffy/internal/backend/ts"
	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// Candidate is a named candidate invariant.
type Candidate struct {
	Name string
	Prop ts.Prop
}

// GrammarOptions bounds candidate generation.
type GrammarOptions struct {
	// Consts are the constants compared against (default {0, 1, Cap}).
	Consts []int64
	// BufferCap is the analysis's buffer capacity, for the cap constant.
	BufferCap int
}

// Grammar generates candidate invariants over the program's state: bounds
// on buffer backlogs and drop counters, bounds on integer globals, and
// list-size bounds. The probe machine supplies the state shape.
func Grammar(info *typecheck.Info, probe *ir.Machine, opts GrammarOptions) []Candidate {
	if opts.BufferCap <= 0 {
		opts.BufferCap = 8
	}
	consts := opts.Consts
	if len(consts) == 0 {
		consts = []int64{0, 1, int64(opts.BufferCap)}
	}
	var out []Candidate
	for _, name := range probe.BufferNames() {
		name := name
		out = append(out, Candidate{
			Name: fmt.Sprintf("dropped(%s) == 0", name),
			Prop: func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
				b := ctx.B
				return b.Eq(m.Buffers()[name].Dropped(), b.IntConst(0))
			},
		})
		for _, k := range consts {
			k := k
			out = append(out, Candidate{
				Name: fmt.Sprintf("backlog(%s) <= %d", name, k),
				Prop: func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
					b := ctx.B
					return b.Le(m.Buffers()[name].BacklogP(ctx), b.IntConst(k))
				},
			})
		}
	}
	for _, d := range info.Globals {
		if d.Type.Kind != ast.TInt || d.Type.IsArray() {
			continue
		}
		vname := d.Name
		out = append(out, Candidate{
			Name: fmt.Sprintf("%s >= 0", vname),
			Prop: func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
				b := ctx.B
				return b.Le(b.IntConst(0), m.Var(vname))
			},
		})
		for _, k := range consts {
			k := k
			out = append(out, Candidate{
				Name: fmt.Sprintf("%s <= %d", vname, k),
				Prop: func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
					b := ctx.B
					return b.Le(m.Var(vname), b.IntConst(k))
				},
			})
		}
	}
	for _, lname := range probe.ListNames() {
		lname := lname
		out = append(out, Candidate{
			Name: fmt.Sprintf("size(%s) >= 0", lname),
			Prop: func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
				b := ctx.B
				_, size := m.List(lname)
				return b.Le(b.IntConst(0), size)
			},
		})
	}
	return out
}

// HoudiniResult reports the pruning run.
type HoudiniResult struct {
	// Survivors is the largest subset of the candidates that is mutually
	// inductive and true initially.
	Survivors []Candidate
	// Dropped lists eliminated candidates in elimination order.
	Dropped []Candidate
	// Rounds is the number of fixpoint iterations.
	Rounds   int
	Checks   int
	Duration time.Duration
}

// Names renders candidate names.
func Names(cs []Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// Houdini prunes candidates to their largest mutually-inductive subset:
// first dropping candidates false in the initial state, then repeatedly
// dropping any candidate not preserved by one transition under the
// assumption of all remaining candidates, until a fixpoint.
func Houdini(info *typecheck.Info, opts ts.Options, cands []Candidate) (*HoudiniResult, error) {
	start := time.Now()
	res := &HoudiniResult{}
	if opts.IR.T == 0 {
		opts.IR.T = 1
	}

	// ---- Initial-state filter (concrete evaluation: the initial state is
	// the empty state, so candidate terms fold to constants).
	{
		sv := solver.New(opts.Solver)
		b := sv.Builder()
		m, err := ir.NewMachine(info, b, opts.IR)
		if err != nil {
			return nil, err
		}
		ctx := &buffer.Ctx{B: b, Assume: func(*term.Term) {}, Prefix: "houdini0"}
		var keep []Candidate
		for _, c := range cands {
			t := c.Prop(m, ctx)
			if t == b.False() {
				res.Dropped = append(res.Dropped, c)
				continue
			}
			if t != b.True() {
				// Not constant in the initial state (should not happen for
				// the empty state); check with the solver.
				res.Checks++
				if sv.CheckAssuming(b.Not(t)) != solver.Unsat {
					res.Dropped = append(res.Dropped, c)
					continue
				}
			}
			keep = append(keep, c)
		}
		cands = keep
	}

	// ---- Inductive fixpoint over one shared symbolic transition.
	sv := solver.New(opts.Solver)
	b := sv.Builder()
	m, err := ir.NewMachine(info, b, opts.IR)
	if err != nil {
		return nil, err
	}
	ctx := &buffer.Ctx{B: b, Assume: func(*term.Term) {}, Prefix: "houdini"}
	ts.Symbolize(m, b, "hd")
	pre := make([]*term.Term, len(cands))
	for i, c := range cands {
		pre[i] = c.Prop(m, ctx)
	}
	if err := m.RunStep(0); err != nil {
		return nil, err
	}
	post := make([]*term.Term, len(cands))
	for i, c := range cands {
		post[i] = c.Prop(m, ctx)
	}
	for _, a := range m.Assumes() {
		sv.Assert(a)
	}

	active := make([]bool, len(cands))
	for i := range active {
		active[i] = true
	}
	for {
		res.Rounds++
		changed := false
		// Antecedent: all active pre-conditions.
		var ant []*term.Term
		for i, on := range active {
			if on {
				ant = append(ant, pre[i])
			}
		}
		antT := b.And(ant...)
		for i, on := range active {
			if !on {
				continue
			}
			res.Checks++
			if sv.CheckAssuming(b.And(antT, b.Not(post[i]))) != solver.Unsat {
				active[i] = false
				res.Dropped = append(res.Dropped, cands[i])
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i, on := range active {
		if on {
			res.Survivors = append(res.Survivors, cands[i])
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}
