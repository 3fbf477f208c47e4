// Package term implements a hash-consed term DAG for quantifier-free
// formulas over booleans and bounded integers. It is the common currency of
// the Buffy compiler: every back-end either consumes terms directly (the
// bit-blasting solver) or pretty-prints them (the SMT-LIB printer).
//
// Terms are immutable and created through a Builder, which interns
// structurally identical terms so that pointer equality coincides with
// structural equality. The Builder also performs light local simplification
// (constant folding, neutral-element elimination, double negation) so that
// downstream encodings stay small.
package term

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Sort is the type of a term.
type Sort uint8

// The two sorts of the Buffy term language. Integers are conceptually
// unbounded here; the bit-blasting layer fixes a two's-complement width.
const (
	Bool Sort = iota
	Int
)

func (s Sort) String() string {
	switch s {
	case Bool:
		return "Bool"
	case Int:
		return "Int"
	}
	return fmt.Sprintf("Sort(%d)", uint8(s))
}

// Kind identifies the operator at the root of a term.
type Kind uint8

// Term kinds. Comparison operators are normalized by the Builder so that
// only Eq, Lt and Le appear in built terms.
const (
	KindInvalid Kind = iota
	KindIntConst
	KindBoolConst
	KindVar

	KindNot
	KindAnd
	KindOr
	KindXor
	KindImplies
	KindIff

	KindEq // polymorphic: both args same sort
	KindLt
	KindLe

	KindAdd
	KindSub
	KindMul
	KindNeg

	KindIte // args: cond, then, else (then/else same sort)
)

var kindNames = map[Kind]string{
	KindIntConst:  "int",
	KindBoolConst: "bool",
	KindVar:       "var",
	KindNot:       "not",
	KindAnd:       "and",
	KindOr:        "or",
	KindXor:       "xor",
	KindImplies:   "=>",
	KindIff:       "iff",
	KindEq:        "=",
	KindLt:        "<",
	KindLe:        "<=",
	KindAdd:       "+",
	KindSub:       "-",
	KindMul:       "*",
	KindNeg:       "neg",
	KindIte:       "ite",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Term is a node in the hash-consed DAG. Do not construct Terms directly;
// use a Builder. Two terms built by the same Builder are structurally equal
// iff they are pointer-equal.
type Term struct {
	kind Kind
	sort Sort
	args []*Term
	ival int64  // KindIntConst value, or 1/0 for KindBoolConst
	name string // KindVar name
	id   int32  // unique per Builder, creation order
}

// Kind returns the root operator.
func (t *Term) Kind() Kind { return t.kind }

// Sort returns the term's sort.
func (t *Term) Sort() Sort { return t.sort }

// Args returns the operand slice. Callers must not mutate it.
func (t *Term) Args() []*Term { return t.args }

// Arg returns the i-th operand.
func (t *Term) Arg(i int) *Term { return t.args[i] }

// NumArgs returns the operand count.
func (t *Term) NumArgs() int { return len(t.args) }

// IntVal returns the value of an integer constant term.
func (t *Term) IntVal() int64 { return t.ival }

// BoolVal returns the value of a boolean constant term.
func (t *Term) BoolVal() bool { return t.ival != 0 }

// Name returns the name of a variable term.
func (t *Term) Name() string { return t.name }

// ID returns the builder-unique id (creation order). Useful as a dense map
// key in downstream passes.
func (t *Term) ID() int32 { return t.id }

// IsConst reports whether the term is an integer or boolean constant.
func (t *Term) IsConst() bool { return t.kind == KindIntConst || t.kind == KindBoolConst }

// String renders the term as an s-expression. Intended for debugging; the
// smtlib package produces standard-conforming output.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.kind {
	case KindIntConst:
		fmt.Fprintf(b, "%d", t.ival)
	case KindBoolConst:
		fmt.Fprintf(b, "%t", t.ival != 0)
	case KindVar:
		b.WriteString(t.name)
	default:
		b.WriteByte('(')
		b.WriteString(t.kind.String())
		for _, a := range t.args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	}
}

// key is the interning key for a term.
type key struct {
	kind Kind
	sort Sort
	ival int64
	name string
	a0   *Term
	a1   *Term
	a2   *Term
	rest string // ids of args beyond 3, fixed-width little-endian
}

// Builder interns terms and performs local simplification. The zero value is
// not usable; call NewBuilder.
type Builder struct {
	interned map[key]*Term
	vars     map[string]*Term
	next     int32
	lookups  int64
	keyBuf   []byte // scratch for key.rest

	trueT  *Term
	falseT *Term
}

// NewBuilder returns an empty Builder with interned true/false constants.
func NewBuilder() *Builder {
	b := &Builder{
		interned: make(map[key]*Term, 1024),
		vars:     make(map[string]*Term, 64),
	}
	b.trueT = b.mk(KindBoolConst, Bool, nil, 1, "")
	b.falseT = b.mk(KindBoolConst, Bool, nil, 0, "")
	return b
}

// NumTerms returns the number of distinct terms created so far.
func (b *Builder) NumTerms() int { return int(b.next) }

// Lookups returns the number of intern-table lookups so far, hits and
// misses alike. Interning hides rebuilt terms from NumTerms; this count is
// the construction work that produced them.
func (b *Builder) Lookups() int64 { return b.lookups }

func (b *Builder) mk(k Kind, s Sort, args []*Term, ival int64, name string) *Term {
	ky := key{kind: k, sort: s, ival: ival, name: name}
	switch len(args) {
	case 0:
	case 1:
		ky.a0 = args[0]
	case 2:
		ky.a0, ky.a1 = args[0], args[1]
	case 3:
		ky.a0, ky.a1, ky.a2 = args[0], args[1], args[2]
	default:
		ky.a0, ky.a1, ky.a2 = args[0], args[1], args[2]
		buf := b.keyBuf[:0]
		for _, a := range args[3:] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a.id))
		}
		b.keyBuf = buf
		ky.rest = string(buf)
	}
	b.lookups++
	if t, ok := b.interned[ky]; ok {
		return t
	}
	t := &Term{kind: k, sort: s, args: args, ival: ival, name: name, id: b.next}
	b.next++
	b.interned[ky] = t
	return t
}

// True returns the boolean constant true.
func (b *Builder) True() *Term { return b.trueT }

// False returns the boolean constant false.
func (b *Builder) False() *Term { return b.falseT }

// BoolConst returns the boolean constant v.
func (b *Builder) BoolConst(v bool) *Term {
	if v {
		return b.trueT
	}
	return b.falseT
}

// IntConst returns the integer constant v.
func (b *Builder) IntConst(v int64) *Term {
	return b.mk(KindIntConst, Int, nil, v, "")
}

// Var returns the variable with the given name and sort, creating it on
// first use. Re-declaring a name with a different sort panics: variable
// names are the interface between compiler passes and must stay consistent.
func (b *Builder) Var(name string, s Sort) *Term {
	if t, ok := b.vars[name]; ok {
		if t.sort != s {
			panic(fmt.Sprintf("term: variable %q redeclared with sort %v (was %v)", name, s, t.sort))
		}
		return t
	}
	t := b.mk(KindVar, s, nil, 0, name)
	b.vars[name] = t
	return t
}

// LookupVar returns the variable with the given name, or nil.
func (b *Builder) LookupVar(name string) *Term { return b.vars[name] }

// Vars returns all variables created so far, in creation order.
func (b *Builder) Vars() []*Term {
	out := make([]*Term, 0, len(b.vars))
	for _, v := range b.vars {
		out = append(out, v)
	}
	// creation order
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].id > out[j].id; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Not returns the negation of t, folding constants and double negation.
func (b *Builder) Not(t *Term) *Term {
	mustSort(t, Bool)
	switch {
	case t == b.trueT:
		return b.falseT
	case t == b.falseT:
		return b.trueT
	case t.kind == KindNot:
		return t.args[0]
	}
	return b.mk(KindNot, Bool, []*Term{t}, 0, "")
}

// And returns the conjunction of ts, dropping true operands and
// short-circuiting on false. And() is true.
func (b *Builder) And(ts ...*Term) *Term {
	flat := make([]*Term, 0, len(ts))
	for _, t := range ts {
		mustSort(t, Bool)
		switch {
		case t == b.falseT:
			return b.falseT
		case t == b.trueT:
			// drop
		case t.kind == KindAnd:
			flat = append(flat, t.args...)
		default:
			flat = append(flat, t)
		}
	}
	flat = dedup(flat)
	switch len(flat) {
	case 0:
		return b.trueT
	case 1:
		return flat[0]
	}
	return b.mk(KindAnd, Bool, flat, 0, "")
}

// Or returns the disjunction of ts, dropping false operands and
// short-circuiting on true. Or() is false.
func (b *Builder) Or(ts ...*Term) *Term {
	flat := make([]*Term, 0, len(ts))
	for _, t := range ts {
		mustSort(t, Bool)
		switch {
		case t == b.trueT:
			return b.trueT
		case t == b.falseT:
			// drop
		case t.kind == KindOr:
			flat = append(flat, t.args...)
		default:
			flat = append(flat, t)
		}
	}
	flat = dedup(flat)
	switch len(flat) {
	case 0:
		return b.falseT
	case 1:
		return flat[0]
	}
	return b.mk(KindOr, Bool, flat, 0, "")
}

// Xor returns exclusive or.
func (b *Builder) Xor(x, y *Term) *Term {
	mustSort(x, Bool)
	mustSort(y, Bool)
	switch {
	case x == b.falseT:
		return y
	case y == b.falseT:
		return x
	case x == b.trueT:
		return b.Not(y)
	case y == b.trueT:
		return b.Not(x)
	case x == y:
		return b.falseT
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KindXor, Bool, []*Term{x, y}, 0, "")
}

// Implies returns x => y.
func (b *Builder) Implies(x, y *Term) *Term {
	mustSort(x, Bool)
	mustSort(y, Bool)
	switch {
	case x == b.trueT:
		return y
	case x == b.falseT, y == b.trueT:
		return b.trueT
	case y == b.falseT:
		return b.Not(x)
	case x == y:
		return b.trueT
	}
	return b.mk(KindImplies, Bool, []*Term{x, y}, 0, "")
}

// Iff returns x <=> y.
func (b *Builder) Iff(x, y *Term) *Term {
	mustSort(x, Bool)
	mustSort(y, Bool)
	switch {
	case x == y:
		return b.trueT
	case x == b.trueT:
		return y
	case y == b.trueT:
		return x
	case x == b.falseT:
		return b.Not(y)
	case y == b.falseT:
		return b.Not(x)
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KindIff, Bool, []*Term{x, y}, 0, "")
}

// Eq returns x == y for two terms of the same sort.
func (b *Builder) Eq(x, y *Term) *Term {
	if x.sort != y.sort {
		panic(fmt.Sprintf("term: Eq sort mismatch: %v vs %v", x.sort, y.sort))
	}
	if x == y {
		return b.trueT
	}
	if x.sort == Bool {
		return b.Iff(x, y)
	}
	if x.kind == KindIntConst && y.kind == KindIntConst {
		return b.BoolConst(x.ival == y.ival)
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KindEq, Bool, []*Term{x, y}, 0, "")
}

// Neq returns x != y.
func (b *Builder) Neq(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// Lt returns x < y (signed).
func (b *Builder) Lt(x, y *Term) *Term {
	mustSort(x, Int)
	mustSort(y, Int)
	if x == y {
		return b.falseT
	}
	if x.kind == KindIntConst && y.kind == KindIntConst {
		return b.BoolConst(x.ival < y.ival)
	}
	return b.mk(KindLt, Bool, []*Term{x, y}, 0, "")
}

// Le returns x <= y (signed).
func (b *Builder) Le(x, y *Term) *Term {
	mustSort(x, Int)
	mustSort(y, Int)
	if x == y {
		return b.trueT
	}
	if x.kind == KindIntConst && y.kind == KindIntConst {
		return b.BoolConst(x.ival <= y.ival)
	}
	return b.mk(KindLe, Bool, []*Term{x, y}, 0, "")
}

// Gt returns x > y, normalized to Lt.
func (b *Builder) Gt(x, y *Term) *Term { return b.Lt(y, x) }

// Ge returns x >= y, normalized to Le.
func (b *Builder) Ge(x, y *Term) *Term { return b.Le(y, x) }

// Add returns the sum of ts. Add() is 0.
func (b *Builder) Add(ts ...*Term) *Term {
	var cst int64
	flat := make([]*Term, 0, len(ts))
	for _, t := range ts {
		mustSort(t, Int)
		switch {
		case t.kind == KindIntConst:
			cst += t.ival
		case t.kind == KindAdd:
			for _, a := range t.args {
				if a.kind == KindIntConst {
					cst += a.ival
				} else {
					flat = append(flat, a)
				}
			}
		default:
			flat = append(flat, t)
		}
	}
	if cst != 0 || len(flat) == 0 {
		flat = append(flat, b.IntConst(cst))
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return b.mk(KindAdd, Int, flat, 0, "")
}

// Sub returns x - y.
func (b *Builder) Sub(x, y *Term) *Term {
	mustSort(x, Int)
	mustSort(y, Int)
	if x.kind == KindIntConst && y.kind == KindIntConst {
		return b.IntConst(x.ival - y.ival)
	}
	if y.kind == KindIntConst && y.ival == 0 {
		return x
	}
	if x == y {
		return b.IntConst(0)
	}
	return b.mk(KindSub, Int, []*Term{x, y}, 0, "")
}

// Mul returns x * y.
func (b *Builder) Mul(x, y *Term) *Term {
	mustSort(x, Int)
	mustSort(y, Int)
	if x.kind == KindIntConst && y.kind == KindIntConst {
		return b.IntConst(x.ival * y.ival)
	}
	if x.kind == KindIntConst {
		x, y = y, x
	}
	if y.kind == KindIntConst {
		switch y.ival {
		case 0:
			return b.IntConst(0)
		case 1:
			return x
		}
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KindMul, Int, []*Term{x, y}, 0, "")
}

// Neg returns -x.
func (b *Builder) Neg(x *Term) *Term {
	mustSort(x, Int)
	if x.kind == KindIntConst {
		return b.IntConst(-x.ival)
	}
	if x.kind == KindNeg {
		return x.args[0]
	}
	return b.mk(KindNeg, Int, []*Term{x}, 0, "")
}

// Ite returns if cond then x else y. x and y must share a sort.
func (b *Builder) Ite(cond, x, y *Term) *Term {
	mustSort(cond, Bool)
	if x.sort != y.sort {
		panic(fmt.Sprintf("term: Ite branch sorts differ: %v vs %v", x.sort, y.sort))
	}
	switch {
	case cond == b.trueT:
		return x
	case cond == b.falseT:
		return y
	case x == y:
		return x
	}
	if x.sort == Bool {
		if x == b.trueT && y == b.falseT {
			return cond
		}
		if x == b.falseT && y == b.trueT {
			return b.Not(cond)
		}
	}
	return b.mk(KindIte, x.sort, []*Term{cond, x, y}, 0, "")
}

// Min returns the smaller of x and y, encoded with Ite.
func (b *Builder) Min(x, y *Term) *Term { return b.Ite(b.Le(x, y), x, y) }

// Max returns the larger of x and y, encoded with Ite.
func (b *Builder) Max(x, y *Term) *Term { return b.Ite(b.Le(x, y), y, x) }

func mustSort(t *Term, s Sort) {
	if t.sort != s {
		panic(fmt.Sprintf("term: expected sort %v, got %v in %s", s, t.sort, t))
	}
}

// dedup removes duplicate operands in place, preserving first occurrence.
func dedup(ts []*Term) []*Term {
	if len(ts) < 2 {
		return ts
	}
	seen := make(map[*Term]struct{}, len(ts))
	out := ts[:0]
	for _, t := range ts {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
