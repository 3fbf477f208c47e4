package term

import "fmt"

// Value is a concrete value for a term: a bool or an int64.
type Value struct {
	Sort Sort
	Bool bool
	Int  int64
}

// BoolValue wraps a bool as a Value.
func BoolValue(v bool) Value { return Value{Sort: Bool, Bool: v} }

// IntValue wraps an int64 as a Value.
func IntValue(v int64) Value { return Value{Sort: Int, Int: v} }

func (v Value) String() string {
	if v.Sort == Bool {
		return fmt.Sprintf("%t", v.Bool)
	}
	return fmt.Sprintf("%d", v.Int)
}

// Assignment maps variables to concrete values.
type Assignment map[*Term]Value

// Eval evaluates t under the assignment. Unassigned variables default to
// false/0 (the solver's convention for don't-care variables). Integer
// arithmetic wraps to width bits in two's complement, matching the
// bit-blasted semantics; pass width <= 0 for unbounded evaluation.
func Eval(t *Term, a Assignment, width int) Value {
	return NewEvaluator(a, width).Eval(t)
}

// Evaluator evaluates terms under one fixed assignment and keeps every
// sub-term value it computes, so a sub-DAG shared by many queried terms is
// evaluated once. The assignment must not change while the Evaluator is in
// use.
type Evaluator struct {
	a     Assignment
	width int
	cache map[*Term]Value
}

// NewEvaluator returns an Evaluator over a with Eval's width convention.
func NewEvaluator(a Assignment, width int) *Evaluator {
	return &Evaluator{a: a, width: width, cache: make(map[*Term]Value)}
}

// Eval evaluates t, as the package-level Eval does.
func (e *Evaluator) Eval(t *Term) Value { return eval(t, e.a, e.width, e.cache) }

func wrap(v int64, width int) int64 {
	if width <= 0 || width >= 64 {
		return v
	}
	mask := int64(1)<<uint(width) - 1
	v &= mask
	if v&(1<<uint(width-1)) != 0 {
		v -= 1 << uint(width)
	}
	return v
}

func eval(t *Term, a Assignment, width int, cache map[*Term]Value) Value {
	if v, ok := cache[t]; ok {
		return v
	}
	var v Value
	switch t.kind {
	case KindIntConst:
		v = IntValue(wrap(t.ival, width))
	case KindBoolConst:
		v = BoolValue(t.ival != 0)
	case KindVar:
		if av, ok := a[t]; ok {
			v = av
		} else if t.sort == Bool {
			v = BoolValue(false)
		} else {
			v = IntValue(0)
		}
	case KindNot:
		v = BoolValue(!eval(t.args[0], a, width, cache).Bool)
	case KindAnd:
		r := true
		for _, x := range t.args {
			r = r && eval(x, a, width, cache).Bool
		}
		v = BoolValue(r)
	case KindOr:
		r := false
		for _, x := range t.args {
			r = r || eval(x, a, width, cache).Bool
		}
		v = BoolValue(r)
	case KindXor:
		v = BoolValue(eval(t.args[0], a, width, cache).Bool != eval(t.args[1], a, width, cache).Bool)
	case KindImplies:
		v = BoolValue(!eval(t.args[0], a, width, cache).Bool || eval(t.args[1], a, width, cache).Bool)
	case KindIff:
		v = BoolValue(eval(t.args[0], a, width, cache).Bool == eval(t.args[1], a, width, cache).Bool)
	case KindEq:
		x, y := eval(t.args[0], a, width, cache), eval(t.args[1], a, width, cache)
		if x.Sort == Bool {
			v = BoolValue(x.Bool == y.Bool)
		} else {
			v = BoolValue(x.Int == y.Int)
		}
	case KindLt:
		v = BoolValue(eval(t.args[0], a, width, cache).Int < eval(t.args[1], a, width, cache).Int)
	case KindLe:
		v = BoolValue(eval(t.args[0], a, width, cache).Int <= eval(t.args[1], a, width, cache).Int)
	case KindAdd:
		var s int64
		for _, x := range t.args {
			s = wrap(s+eval(x, a, width, cache).Int, width)
		}
		v = IntValue(s)
	case KindSub:
		v = IntValue(wrap(eval(t.args[0], a, width, cache).Int-eval(t.args[1], a, width, cache).Int, width))
	case KindMul:
		v = IntValue(wrap(eval(t.args[0], a, width, cache).Int*eval(t.args[1], a, width, cache).Int, width))
	case KindNeg:
		v = IntValue(wrap(-eval(t.args[0], a, width, cache).Int, width))
	case KindIte:
		if eval(t.args[0], a, width, cache).Bool {
			v = eval(t.args[1], a, width, cache)
		} else {
			v = eval(t.args[2], a, width, cache)
		}
	default:
		panic(fmt.Sprintf("term: Eval: unhandled kind %v", t.kind))
	}
	cache[t] = v
	return v
}
