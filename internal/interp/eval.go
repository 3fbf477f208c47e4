package interp

import (
	"fmt"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
)

// eval evaluates an expression to an int64 (booleans as 0/1), wrapping
// integer arithmetic at the configured width — the same two's-complement
// semantics the bit-blasted encoding has.
func (m *Machine) eval(e ast.Expr, le loopEnv) (int64, error) {
	switch n := e.(type) {
	case *ast.IntLit:
		return m.wrap(n.Value), nil
	case *ast.BoolLit:
		if n.Value {
			return 1, nil
		}
		return 0, nil
	case *ast.Ident:
		return m.evalIdent(n, le)
	case *ast.Unary:
		x, err := m.eval(n.X, le)
		if err != nil {
			return 0, err
		}
		if n.Op == ast.OpNot {
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return m.wrap(-x), nil
	case *ast.Binary:
		return m.evalBinary(n, le)
	case *ast.Index:
		base, ok := n.X.(*ast.Ident)
		if !ok {
			return 0, fmt.Errorf("interp: bad index base")
		}
		idx, err := m.eval(n.Idx, le)
		if err != nil {
			return 0, err
		}
		if size, isArr := m.arraySize[base.Name]; isArr {
			if idx < 0 || idx >= size {
				return 0, nil // out-of-range read: zero value
			}
			return m.vars[fmt.Sprintf("%s[%d]", base.Name, idx)], nil
		}
		return 0, fmt.Errorf("interp: %q is not an array", base.Name)
	case *ast.Backlog:
		buf, fs, err := m.resolveBuf(n.Buf, le)
		if err != nil {
			return 0, err
		}
		if buf == nil {
			return 0, nil // null buffer
		}
		var total int64
		for _, p := range buf.Pkts {
			if matches(p, fs) {
				if n.Bytes {
					total += p.Bytes
				} else {
					total++
				}
			}
		}
		return total, nil
	case *ast.ListQuery:
		lname := n.List.(*ast.Ident).Name
		l := m.lists[lname]
		switch n.Op {
		case ast.ListEmpty:
			if len(l) == 0 {
				return 1, nil
			}
			return 0, nil
		case ast.ListSize:
			return int64(len(l)), nil
		case ast.ListHas:
			arg, err := m.eval(n.Arg, le)
			if err != nil {
				return 0, err
			}
			for _, v := range l {
				if v == arg {
					return 1, nil
				}
			}
			return 0, nil
		}
	case *ast.PopFront:
		return 0, fmt.Errorf("interp: pop_front outside assignment")
	case *ast.Filter:
		return 0, fmt.Errorf("interp: a filtered buffer is not a value")
	}
	return 0, fmt.Errorf("interp: unhandled expression %T", e)
}

func (m *Machine) evalIdent(n *ast.Ident, le loopEnv) (int64, error) {
	if le != nil {
		if v, ok := le[n.Name]; ok {
			return v, nil
		}
	}
	if v, ok := m.vars[n.Name]; ok {
		return v, nil
	}
	if n.Name == "t" {
		return int64(m.step), nil
	}
	if v, ok := m.opts.Params[n.Name]; ok {
		return v, nil
	}
	if n.Name == "T" {
		return int64(m.opts.T), nil
	}
	return 0, fmt.Errorf("interp: unbound identifier %q", n.Name)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) evalBinary(n *ast.Binary, le loopEnv) (int64, error) {
	x, err := m.eval(n.X, le)
	if err != nil {
		return 0, err
	}
	y, err := m.eval(n.Y, le)
	if err != nil {
		return 0, err
	}
	switch n.Op {
	case ast.OpAdd:
		return m.wrap(x + y), nil
	case ast.OpSub:
		return m.wrap(x - y), nil
	case ast.OpMul:
		return m.wrap(x * y), nil
	case ast.OpDiv:
		if y == 0 {
			return 0, fmt.Errorf("interp: division by zero")
		}
		return m.wrap(x / y), nil
	case ast.OpMod:
		if y == 0 {
			return 0, fmt.Errorf("interp: modulo by zero")
		}
		return m.wrap(x % y), nil
	case ast.OpEq:
		return boolToInt(x == y), nil
	case ast.OpNeq:
		return boolToInt(x != y), nil
	case ast.OpLt:
		return boolToInt(x < y), nil
	case ast.OpLe:
		return boolToInt(x <= y), nil
	case ast.OpGt:
		return boolToInt(x > y), nil
	case ast.OpGe:
		return boolToInt(x >= y), nil
	case ast.OpAnd:
		return boolToInt(x != 0 && y != 0), nil
	case ast.OpOr:
		return boolToInt(x != 0 || y != 0), nil
	}
	return 0, fmt.Errorf("interp: unhandled operator %v", n.Op)
}

// fold evaluates a compile-time constant (an initializer, a loop bound or
// a buffer size) with the unrolled loop variables le in scope.
func (m *Machine) fold(e ast.Expr, le loopEnv) (int64, error) {
	return typecheck.Fold(e, typecheck.Scope{Loop: le, Params: m.opts.Params, T: m.opts.T, Step: m.step}.Lookup)
}
