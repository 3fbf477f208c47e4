// Package ts is Buffy's transition-system back-end, the representation §4
// plans for symbolic model checkers ("Buffy can transform the program into
// a transition system as the IR"). A program's one-step semantics becomes
// a symbolic step function over an explicit state vector (globals, lists,
// buffer slots), from which the package implements:
//
//   - BMC: bounded reachability from the initial (empty) state, and
//   - k-induction: prove a state property for EVERY horizon — the
//     "arbitrarily-bounded time horizon" improvement over tools like
//     FPerf that §7 describes, provided the property (possibly helped by
//     auxiliary invariants à la §5's interface specifications) is
//     k-inductive.
//
// Programs analyzed here must be step-independent: reading the builtin t
// makes the transition relation vary per step and is rejected.
package ts

import (
	"context"
	"fmt"
	"slices"
	"time"

	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// Prop builds a property term over a machine's current state. It must be a
// pure observation (read variables and buffer backlogs; no mutation).
type Prop func(m *ir.Machine, ctx *buffer.Ctx) *term.Term

// Options configures an induction proof.
type Options struct {
	IR     ir.Options
	Solver solver.Options
	// K is the induction depth (default 1).
	K int
	// Aux are auxiliary invariants: assumed on every pre-state of the
	// induction step AND themselves proven alongside the main property
	// (so the combined conjunction is what is actually established).
	Aux []Prop
}

// Result reports an induction attempt.
type Result struct {
	// Proved means base and step both succeeded: the property holds for
	// every horizon.
	Proved bool
	// BaseOK: no violation within the first K steps from the initial state.
	BaseOK bool
	// StepOK: assuming the property on K consecutive symbolic states, the
	// next state satisfies it.
	StepOK   bool
	Duration time.Duration
}

// usesTime reports whether the program reads the step counter t.
func usesTime(info *typecheck.Info) bool {
	found := false
	ast.WalkExprs(info.Prog.Body, func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name == "t" {
			if sym := info.Symbols[id]; sym != nil && sym.Kind == typecheck.SymBuiltin {
				found = true
			}
		}
	})
	return found
}

// ProveInvariant attempts a k-induction proof that prop (together with the
// auxiliary invariants) holds in every reachable state at every horizon.
// Cancelling ctx aborts the proof with ctx's error.
func ProveInvariant(ctx context.Context, info *typecheck.Info, opts Options, prop Prop) (*Result, error) {
	start := time.Now()
	if usesTime(info) {
		return nil, fmt.Errorf("ts: program %s reads the step counter t; its transition relation is not step-independent", info.Prog.Name)
	}
	if opts.K <= 0 {
		opts.K = 1
	}
	all := append([]Prop{prop}, opts.Aux...)
	conj := func(m *ir.Machine, rc *buffer.Ctx, b *term.Builder) *term.Term {
		parts := make([]*term.Term, len(all))
		for i, p := range all {
			parts[i] = p(m, rc)
		}
		return b.And(parts...)
	}

	res := &Result{}

	// ---- Base case: the property holds in the first K+1 states reached
	// from the empty initial state.
	{
		sv := solver.New(opts.Solver)
		b := sv.Builder()
		m, err := ir.NewMachine(info, b, opts.IR)
		if err != nil {
			return nil, err
		}
		rc := readCtx(b)
		var bad []*term.Term
		bad = append(bad, b.Not(conj(m, rc, b))) // initial state
		for i := 0; i < opts.K; i++ {
			if err := m.Unroll(ctx, i+1); err != nil {
				return nil, err
			}
			bad = append(bad, b.Not(conj(m, rc, b)))
		}
		r, err := check(ctx, sv, m.Assumes(), b.Or(bad...))
		if err != nil {
			return nil, err
		}
		switch r {
		case solver.Unsat:
			res.BaseOK = true
		case solver.Unknown:
			res.Duration = time.Since(start)
			return res, nil
		}
	}

	// ---- Induction step: from K consecutive property-satisfying states,
	// the next state satisfies the property.
	{
		sv := solver.New(opts.Solver)
		b := sv.Builder()
		m, err := ir.NewMachine(info, b, opts.IR)
		if err != nil {
			return nil, err
		}
		rc := readCtx(b)
		Symbolize(m, b, "ind")
		var pre []*term.Term
		pre = append(pre, conj(m, rc, b))
		for i := 0; i < opts.K; i++ {
			if err := m.Unroll(ctx, i+1); err != nil {
				return nil, err
			}
			if i < opts.K-1 {
				pre = append(pre, conj(m, rc, b))
			}
		}
		r, err := check(ctx, sv, slices.Concat(m.Assumes(), pre), b.Not(conj(m, rc, b)))
		if err != nil {
			return nil, err
		}
		res.StepOK = r == solver.Unsat
	}

	res.Proved = res.BaseOK && res.StepOK
	res.Duration = time.Since(start)
	return res, nil
}

// CheckBounded is plain BMC over the transition system: does the property
// hold in every state reachable within T steps? Cancelling ctx aborts the
// check with ctx's error.
func CheckBounded(ctx context.Context, info *typecheck.Info, opts Options, prop Prop) (bool, error) {
	sv := solver.New(opts.Solver)
	b := sv.Builder()
	m, err := ir.NewMachine(info, b, opts.IR)
	if err != nil {
		return false, err
	}
	rc := readCtx(b)
	var bad []*term.Term
	bad = append(bad, b.Not(prop(m, rc)))
	T := opts.IR.T
	if T <= 0 {
		T = 1
	}
	for i := 0; i < T; i++ {
		if err := m.Unroll(ctx, i+1); err != nil {
			return false, err
		}
		bad = append(bad, b.Not(prop(m, rc)))
	}
	r, err := check(ctx, sv, m.Assumes(), b.Or(bad...))
	return r == solver.Unsat, err
}

// check asserts assumes and goal in one bitblast batch and checks them,
// failing with ctx's error once ctx is done.
func check(ctx context.Context, sv *solver.Solver, assumes []*term.Term, goal *term.Term) (solver.Result, error) {
	if err := sv.AssertAll(ctx, append(slices.Clip(assumes), goal)); err != nil {
		return solver.Unknown, err
	}
	r := sv.Check(ctx)
	return r, ctx.Err()
}

// Symbolize replaces a machine's state (variables, lists, buffers) with
// fresh symbolic values constrained to each component's well-formedness
// invariant — the "arbitrary reachable-ish state" an induction step starts
// from.
func Symbolize(m *ir.Machine, b *term.Builder, prefix string) {
	ctx := m.Ctx()
	for _, name := range m.VarNames() {
		cur := m.Var(name)
		v := b.Var(fmt.Sprintf("%s!%s", prefix, name), cur.Sort())
		m.SetVar(name, v)
	}
	for _, name := range m.ListNames() {
		elems, _ := m.List(name)
		fresh := make([]*term.Term, len(elems))
		for i := range fresh {
			fresh[i] = b.Var(fmt.Sprintf("%s!%s.e%d", prefix, name, i), term.Int)
		}
		size := b.Var(fmt.Sprintf("%s!%s.size", prefix, name), term.Int)
		ctx.Assume(b.Le(b.IntConst(0), size))
		ctx.Assume(b.Le(size, b.IntConst(int64(len(elems)))))
		m.SetList(name, fresh, size)
	}
	for _, name := range m.BufferNames() {
		st := m.Buffers()[name]
		sym := st.Model().Symbolic(ctx, st.Config(), fmt.Sprintf("%s!%s", prefix, name))
		m.SetBuffer(name, sym)
	}
}

// readCtx builds a side-effect-free context for evaluating props.
func readCtx(b *term.Builder) *buffer.Ctx {
	return &buffer.Ctx{B: b, Assume: func(*term.Term) {}, Prefix: "prop"}
}
