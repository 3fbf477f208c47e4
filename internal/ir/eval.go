package ir

import (
	"fmt"

	"buffy/internal/buffer"
	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/term"
)

// bufArm is one candidate buffer instance of a (possibly symbolically
// indexed) buffer expression, guarded by cond.
type bufArm struct {
	cond *term.Term
	name string
}

// bufRef is the evaluated form of a buffer expression: a guarded set of
// instances (the case split FPerf writes by hand) plus accumulated filters.
type bufRef struct {
	arms    []bufArm
	filters []buffer.Filter
}

// eval evaluates an int- or bool-typed expression to a term.
func (m *Machine) eval(e ast.Expr, le loopEnv) (*term.Term, error) {
	b := m.b
	switch n := e.(type) {
	case *ast.IntLit:
		return b.IntConst(n.Value), nil
	case *ast.BoolLit:
		return b.BoolConst(n.Value), nil
	case *ast.Ident:
		return m.evalIdent(n, le)
	case *ast.Unary:
		x, err := m.eval(n.X, le)
		if err != nil {
			return nil, err
		}
		if n.Op == ast.OpNot {
			return b.Not(x), nil
		}
		return b.Neg(x), nil
	case *ast.Binary:
		return m.evalBinary(n, le)
	case *ast.Index:
		return m.evalIndex(n, le)
	case *ast.Backlog:
		ref, err := m.evalBufRef(n.Buf, le)
		if err != nil {
			return nil, err
		}
		return m.backlogOf(ref, n.Bytes, pos(n.KwPos))
	case *ast.ListQuery:
		return m.evalListQuery(n, le)
	case *ast.PopFront:
		return nil, &Error{pos(n.Pos()), "pop_front outside assignment"}
	case *ast.Filter:
		return nil, &Error{pos(n.Pos()), "a filtered buffer is not a value; apply backlog-p/backlog-b or move it"}
	}
	return nil, &Error{pos(e.Pos()), fmt.Sprintf("unhandled expression %T", e)}
}

func (m *Machine) evalBool(e ast.Expr, le loopEnv) (*term.Term, error) {
	t, err := m.eval(e, le)
	if err != nil {
		return nil, err
	}
	if t.Sort() != term.Bool {
		return nil, &Error{pos(e.Pos()), "expected a boolean expression"}
	}
	return t, nil
}

func (m *Machine) evalIdent(n *ast.Ident, le loopEnv) (*term.Term, error) {
	if v, ok := le[n.Name]; ok {
		return m.b.IntConst(v), nil
	}
	if v, ok := m.vars[n.Name]; ok {
		return v, nil
	}
	if n.Name == "t" {
		return m.curT, nil
	}
	if v, ok := m.opts.Params[n.Name]; ok {
		return m.b.IntConst(v), nil
	}
	if n.Name == "T" {
		if m.opts.SymbolicT {
			return m.tvar, nil
		}
		return m.b.IntConst(int64(m.opts.T)), nil
	}
	if _, isArr := m.arraySize[n.Name]; isArr {
		return nil, &Error{pos(n.IdPos), fmt.Sprintf("array %q used without an index", n.Name)}
	}
	if _, isList := m.lists[n.Name]; isList {
		return nil, &Error{pos(n.IdPos), fmt.Sprintf("list %q used as a value", n.Name)}
	}
	return nil, &Error{pos(n.IdPos), fmt.Sprintf("unbound identifier %q (missing compile-time parameter?)", n.Name)}
}

func (m *Machine) evalBinary(n *ast.Binary, le loopEnv) (*term.Term, error) {
	b := m.b
	// Division and modulo are compile-time only (§7 keeps the encodings in
	// cheap theories): both operands must constant-fold.
	if n.Op == ast.OpDiv || n.Op == ast.OpMod {
		v, err := m.fold(n, le)
		if err != nil {
			return nil, &Error{pos(n.Pos()), "/ and % require compile-time constant operands: " + err.Error()}
		}
		return b.IntConst(v), nil
	}
	x, err := m.eval(n.X, le)
	if err != nil {
		return nil, err
	}
	y, err := m.eval(n.Y, le)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case ast.OpAdd:
		return b.Add(x, y), nil
	case ast.OpSub:
		return b.Sub(x, y), nil
	case ast.OpMul:
		return b.Mul(x, y), nil
	case ast.OpEq:
		return b.Eq(x, y), nil
	case ast.OpNeq:
		return b.Neq(x, y), nil
	case ast.OpLt:
		return b.Lt(x, y), nil
	case ast.OpLe:
		return b.Le(x, y), nil
	case ast.OpGt:
		return b.Gt(x, y), nil
	case ast.OpGe:
		return b.Ge(x, y), nil
	case ast.OpAnd:
		return b.And(x, y), nil
	case ast.OpOr:
		return b.Or(x, y), nil
	}
	return nil, &Error{pos(n.Pos()), fmt.Sprintf("unhandled operator %v", n.Op)}
}

// evalIndex evaluates arr[i] for scalar arrays (buffer arrays are handled
// by evalBufRef).
func (m *Machine) evalIndex(n *ast.Index, le loopEnv) (*term.Term, error) {
	base, ok := n.X.(*ast.Ident)
	if !ok {
		return nil, &Error{pos(n.Pos()), "only variables can be indexed"}
	}
	size, isArr := m.arraySize[base.Name]
	if !isArr {
		return nil, &Error{pos(base.IdPos), fmt.Sprintf("%q is not an array", base.Name)}
	}
	idx, err := m.eval(n.Idx, le)
	if err != nil {
		return nil, err
	}
	// Flattened read: ite chain over slots; out-of-range reads yield the
	// element type's zero value.
	first := m.vars[fmt.Sprintf("%s[0]", base.Name)]
	var out *term.Term
	if first.Sort() == term.Bool {
		out = m.b.False()
	} else {
		out = m.b.IntConst(0)
	}
	for i := size - 1; i >= 0; i-- {
		slot := m.vars[fmt.Sprintf("%s[%d]", base.Name, i)]
		out = m.b.Ite(m.b.Eq(idx, m.b.IntConst(i)), slot, out)
	}
	return out, nil
}

func (m *Machine) evalListQuery(n *ast.ListQuery, le loopEnv) (*term.Term, error) {
	lname, err := m.listName(n.List)
	if err != nil {
		return nil, err
	}
	l := m.lists[lname]
	b := m.b
	switch n.Op {
	case ast.ListEmpty:
		return b.Eq(l.size, b.IntConst(0)), nil
	case ast.ListSize:
		return l.size, nil
	case ast.ListHas:
		arg, err := m.eval(n.Arg, le)
		if err != nil {
			return nil, err
		}
		hits := make([]*term.Term, len(l.elems))
		for i := range l.elems {
			inRange := b.Lt(b.IntConst(int64(i)), l.size)
			hits[i] = b.And(inRange, b.Eq(l.elems[i], arg))
		}
		return b.Or(hits...), nil
	}
	return nil, &Error{pos(n.Pos()), "unhandled list query"}
}

// evalBufRef resolves a buffer expression to guarded instances + filters.
func (m *Machine) evalBufRef(e ast.Expr, le loopEnv) (*bufRef, error) {
	switch n := e.(type) {
	case *ast.Ident:
		insts, ok := m.bufInstances[n.Name]
		if !ok {
			return nil, &Error{pos(n.IdPos), fmt.Sprintf("%q is not a buffer", n.Name)}
		}
		if len(insts) != 1 || m.info.Prog.Params[m.paramIndex(n.Name)].Size != nil {
			return nil, &Error{pos(n.IdPos), fmt.Sprintf("buffer array %q used without an index", n.Name)}
		}
		return &bufRef{arms: []bufArm{{cond: m.b.True(), name: insts[0]}}}, nil
	case *ast.Index:
		base, ok := n.X.(*ast.Ident)
		if !ok {
			return nil, &Error{pos(n.Pos()), "invalid buffer expression"}
		}
		insts, isBuf := m.bufInstances[base.Name]
		if !isBuf {
			return nil, &Error{pos(base.IdPos), fmt.Sprintf("%q is not a buffer array", base.Name)}
		}
		idx, err := m.eval(n.Idx, le)
		if err != nil {
			return nil, err
		}
		if idx.Kind() == term.KindIntConst {
			i := idx.IntVal()
			if i >= 0 && i < int64(len(insts)) {
				return &bufRef{arms: []bufArm{{cond: m.b.True(), name: insts[i]}}}, nil
			}
			// A syntactically-literal out-of-range index is a hard error
			// (surely a typo); an out-of-range value that merely folded to
			// a constant gets the run-time "null buffer" semantics the
			// interpreter implements (backlog 0, moves are no-ops).
			if _, lit := n.Idx.(*ast.IntLit); lit {
				return nil, &Error{pos(n.Idx.Pos()), fmt.Sprintf("buffer index %d out of range [0,%d)", i, len(insts))}
			}
			return &bufRef{}, nil
		}
		// Run-time index: case split over all instances (the Figure 1
		// enumeration, generated instead of hand-written).
		ref := &bufRef{}
		for i, name := range insts {
			ref.arms = append(ref.arms, bufArm{
				cond: m.b.Eq(idx, m.b.IntConst(int64(i))),
				name: name,
			})
		}
		return ref, nil
	case *ast.Filter:
		ref, err := m.evalBufRef(n.Buf, le)
		if err != nil {
			return nil, err
		}
		fidx, ok := m.info.FieldIndex[n.Field]
		if !ok {
			return nil, &Error{pos(n.Pos()), fmt.Sprintf("unknown field %q", n.Field)}
		}
		val, err := m.eval(n.Value, le)
		if err != nil {
			return nil, err
		}
		ref.filters = append(ref.filters, buffer.Filter{Field: fidx, Value: val})
		return ref, nil
	}
	return nil, &Error{pos(e.Pos()), "expected a buffer expression"}
}

func (m *Machine) paramIndex(name string) int {
	for i, p := range m.info.Prog.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// backlogOf evaluates backlog over a guarded buffer reference.
func (m *Machine) backlogOf(ref *bufRef, bytes bool, p Pos) (*term.Term, error) {
	out := m.b.IntConst(0)
	for i := len(ref.arms) - 1; i >= 0; i-- {
		arm := ref.arms[i]
		st := m.bufs[arm.name]
		var v *term.Term
		var err error
		switch {
		case len(ref.filters) == 0 && !bytes:
			v = st.BacklogP(m.ctx)
		case len(ref.filters) == 0 && bytes:
			v = st.BacklogB(m.ctx)
		default:
			v, err = m.filteredBacklog(st, ref.filters, bytes)
			if err != nil {
				return nil, &Error{p, err.Error()}
			}
		}
		out = m.b.Ite(arm.cond, v, out)
	}
	return out, nil
}

// filteredBacklog applies one or more filters. A single filter maps to the
// model's primitive; chains are only exact on the list model, where they
// are computed by intersecting masks via repeated single-filter calls is
// not possible — instead we require single filters for non-list models and
// compute chains on the list model by nesting.
func (m *Machine) filteredBacklog(st buffer.State, filters []buffer.Filter, bytes bool) (*term.Term, error) {
	if len(filters) == 1 {
		if bytes {
			return st.FilterBacklogB(m.ctx, filters[0])
		}
		return st.FilterBacklogP(m.ctx, filters[0])
	}
	ls, ok := st.(interface {
		MultiFilterBacklog(c *buffer.Ctx, fs []buffer.Filter, bytes bool) (*term.Term, error)
	})
	if !ok {
		return nil, fmt.Errorf("chained filters need the list buffer model")
	}
	return ls.MultiFilterBacklog(m.ctx, filters, bytes)
}

// fold evaluates a compile-time constant with the unrolled loop
// variables le in scope. A symbolic T has no constant value: constant
// positions shape the encoding itself and cannot wait for the solver.
func (m *Machine) fold(e ast.Expr, le loopEnv) (int64, error) {
	return typecheck.Fold(e, typecheck.Scope{
		Loop: le, Params: m.opts.Params, T: m.opts.T, Step: m.step, SymbolicT: m.opts.SymbolicT,
	}.Lookup)
}
