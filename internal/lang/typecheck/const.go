package typecheck

// Constants and model bounds are decided here, once, for every consumer:
// the ir encoder, the sema interval pass, the interpreter and the Dafny
// generator fold through Fold and size their models through
// ResolveBounds, so the symbolic, abstract and concrete semantics agree
// on every constant and every capacity.

import (
	"fmt"

	"buffy/internal/lang/ast"
)

// Fold evaluates a compile-time constant: int and bool literals (bools
// are 0 and 1), identifiers through lookup, unary - and !, and
// + - * / %. Division and modulo truncate toward zero. Every error is an
// *Error at the node that failed; a lookup error is placed at its
// identifier.
func Fold(e ast.Expr, lookup func(name string) (int64, error)) (int64, error) {
	switch n := e.(type) {
	case *ast.IntLit:
		return n.Value, nil
	case *ast.BoolLit:
		return boolInt(n.Value), nil
	case *ast.Ident:
		v, err := lookup(n.Name)
		if err != nil {
			return 0, &Error{Pos: n.IdPos, Msg: err.Error()}
		}
		return v, nil
	case *ast.Unary:
		v, err := Fold(n.X, lookup)
		if err != nil {
			return 0, err
		}
		if n.Op == ast.OpNot {
			return boolInt(v == 0), nil
		}
		return -v, nil
	case *ast.Binary:
		x, err := Fold(n.X, lookup)
		if err != nil {
			return 0, err
		}
		y, err := Fold(n.Y, lookup)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case ast.OpAdd:
			return x + y, nil
		case ast.OpSub:
			return x - y, nil
		case ast.OpMul:
			return x * y, nil
		case ast.OpDiv, ast.OpMod:
			if y == 0 {
				return 0, &Error{Pos: n.Y.Pos(), Msg: fmt.Sprintf("%v by zero in a constant expression", n.Op)}
			}
			if n.Op == ast.OpDiv {
				return x / y, nil
			}
			return x % y, nil
		}
		return 0, &Error{Pos: n.Pos(), Msg: fmt.Sprintf("operator %v not allowed in a constant expression", n.Op)}
	}
	return 0, &Error{Pos: e.Pos(), Msg: "not a compile-time constant expression"}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Scope binds the names a constant may use. Loop variables shadow
// parameters, and both shadow the builtins T (the horizon) and t (the
// current step; 0 in declarations, which run before step 0).
type Scope struct {
	Loop   map[string]int64
	Params map[string]int64
	T      int
	Step   int
	// SymbolicT: T is a solver variable in this compilation, so it has
	// no constant value.
	SymbolicT bool
}

// Lookup resolves one name in the scope, for Fold.
func (s Scope) Lookup(name string) (int64, error) {
	if v, ok := s.Loop[name]; ok {
		return v, nil
	}
	if v, ok := s.Params[name]; ok {
		return v, nil
	}
	switch name {
	case "T":
		if s.SymbolicT {
			return 0, fmt.Errorf("T is symbolic in this compilation and cannot appear in a constant position")
		}
		return int64(s.T), nil
	case "t":
		return int64(s.Step), nil
	}
	return 0, fmt.Errorf("%q is not a compile-time constant (missing parameter?)", name)
}

// Bounds are the model sizes an analysis runs under. A non-positive
// field takes its default from ResolveBounds.
type Bounds struct {
	// BufferCap is each buffer's capacity (default 8).
	BufferCap int
	// OutBufferCap is each output buffer's capacity (default
	// T*ArrivalsPerStep*inputs + BufferCap, so accumulated output is
	// never dropped).
	OutBufferCap int
	// ArrivalsPerStep bounds the packets arriving at each input buffer
	// instance per step (default 1).
	ArrivalsPerStep int
	// NumClasses bounds packet field values to 0..NumClasses-1 (default
	// max(inputs, 2)).
	NumClasses int
	// MaxBytes bounds a packet's byte size (default 1: unit packets).
	MaxBytes int
	// ListCap bounds each list variable's length (default max(inputs, 4)).
	ListCap int
}

// ResolveBounds returns b with every non-positive field set to its
// default for this program at horizon T (at least 1) under params.
// inputs is the number of input buffer instances; an array whose size
// does not fold to a positive value counts as one.
func (info *Info) ResolveBounds(b Bounds, T int, params map[string]int64) Bounds {
	T = max(T, 1)
	inputs := 0
	for _, bp := range info.Inputs {
		n := int64(1)
		if bp.Size != nil {
			if v, err := Fold(bp.Size, Scope{Params: params, T: T}.Lookup); err == nil && v > 0 {
				n = v
			}
		}
		inputs += int(n)
	}
	orDefault := func(v *int, def int) {
		if *v <= 0 {
			*v = def
		}
	}
	orDefault(&b.BufferCap, 8)
	orDefault(&b.ArrivalsPerStep, 1)
	orDefault(&b.NumClasses, max(inputs, 2))
	orDefault(&b.MaxBytes, 1)
	orDefault(&b.ListCap, max(inputs, 4))
	orDefault(&b.OutBufferCap, max(T*b.ArrivalsPerStep*inputs+b.BufferCap, b.BufferCap))
	return b
}
