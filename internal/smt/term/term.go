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
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
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
	hash uint32 // intern hash, so growing the index never rehashes
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

// Builder interns terms and performs local simplification. The zero value is
// not usable; call NewBuilder.
type Builder struct {
	// index is an open-addressing table over terms: a slot holds a term's
	// id + 1, and 0 marks an empty slot. Its length is a power of two; it
	// doubles at 3/4 load, and probing is triangular, which visits every
	// slot of a power-of-two table.
	index []int32
	terms []*Term // by id
	seed  uint64  // hash seed, random per Builder

	// Terms and their operand lists are carved from chunks, so a miss
	// costs no allocation of its own.
	termSlab []Term
	argSlab  []*Term

	vars    map[string]*Term
	varList []*Term // creation order
	lookups int64
	probes  int64 // index slots examined by lookups

	seen  []uint32 // dedup stamps, by term id
	stamp uint32

	trueT  *Term
	falseT *Term
}

const (
	initialIndex = 1 << 8
	termChunk    = 256  // 16 KiB of Terms
	argChunk     = 1024 // 8 KiB of operand pointers
)

// NewBuilder returns an empty Builder with interned true/false constants.
func NewBuilder() *Builder { return newBuilder(rand.Uint64()) }

// newBuilder returns a Builder hashing under seed. The seed decides only
// where a term sits in the index, never its id. A per-Builder random seed
// keeps request-supplied constants from being chosen to collide.
func newBuilder(seed uint64) *Builder {
	b := &Builder{
		index: make([]int32, initialIndex),
		seed:  seed,
		vars:  make(map[string]*Term, 64),
	}
	b.trueT = b.mk(KindBoolConst, Bool, nil, 1, "")
	b.falseT = b.mk(KindBoolConst, Bool, nil, 0, "")
	return b
}

// NumTerms returns the number of distinct terms created so far.
func (b *Builder) NumTerms() int { return len(b.terms) }

// Lookups returns the number of intern-table lookups so far, hits and
// misses alike. Interning hides rebuilt terms from NumTerms; this count is
// the construction work that produced them.
func (b *Builder) Lookups() int64 { return b.lookups }

// mk returns the interned term with the given structure, creating it on a
// miss. It does not keep args: a new term gets its own copy.
func (b *Builder) mk(k Kind, s Sort, args []*Term, ival int64, name string) *Term {
	b.lookups++
	h := b.hash(k, s, args, ival, name)
	mask := uint32(len(b.index) - 1)
	i := h & mask
	for step := uint32(1); ; step++ {
		b.probes++
		slot := b.index[i]
		if slot == 0 {
			break
		}
		if t := b.terms[slot-1]; t.hash == h && t.kind == k && t.sort == s &&
			t.ival == ival && t.name == name && slices.Equal(t.args, args) {
			return t
		}
		i = (i + step) & mask
	}
	if len(b.termSlab) == 0 {
		b.termSlab = make([]Term, termChunk)
	}
	t := &b.termSlab[0]
	b.termSlab = b.termSlab[1:]
	*t = Term{kind: k, sort: s, args: b.copyArgs(args), ival: ival, name: name, id: int32(len(b.terms)), hash: h}
	b.terms = append(b.terms, t)
	b.index[i] = t.id + 1
	if 4*len(b.terms) > 3*len(b.index) {
		b.grow()
	}
	return t
}

// copyArgs returns a copy of args carved from the operand slab. Its
// capacity is its length, so appending to it cannot reach a neighbour.
func (b *Builder) copyArgs(args []*Term) []*Term {
	n := len(args)
	if n == 0 {
		return nil
	}
	if n > len(b.argSlab) {
		b.argSlab = make([]*Term, max(n, argChunk))
	}
	out := b.argSlab[:n:n]
	copy(out, args)
	b.argSlab = b.argSlab[n:]
	return out
}

// grow doubles the index and re-inserts every term by its stored hash.
func (b *Builder) grow() {
	b.index = make([]int32, 2*len(b.index))
	mask := uint32(len(b.index) - 1)
	for _, t := range b.terms {
		i := t.hash & mask
		for step := uint32(1); b.index[i] != 0; step++ {
			i = (i + step) & mask
		}
		b.index[i] = t.id + 1
	}
}

// hash folds a term's structure into 32 bits under the Builder's seed.
// Operands enter by id, which is unique per Builder.
func (b *Builder) hash(k Kind, s Sort, args []*Term, ival int64, name string) uint32 {
	h := mix(b.seed, uint64(k)|uint64(s)<<8|uint64(len(args))<<16|uint64(len(name))<<32)
	h = mix(h, uint64(ival))
	for _, a := range args {
		h = mix(h, uint64(a.id))
	}
	for i := 0; i < len(name); i += 8 {
		var w uint64
		for j := i; j < len(name) && j < i+8; j++ {
			w = w<<8 | uint64(name[j])
		}
		h = mix(h, w)
	}
	return uint32(h ^ h>>32)
}

// mix folds x into h with one 64×64→128-bit multiply, as wyhash does.
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, 0x9e3779b97f4a7c15)
	return hi ^ lo
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
	b.varList = append(b.varList, t)
	return t
}

// Vars returns all variables created so far, in creation order.
func (b *Builder) Vars() []*Term { return append([]*Term(nil), b.varList...) }

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
	var buf [8]*Term // operands are copied by mk, so short lists stay on the stack
	flat := buf[:0]
	if len(ts) > len(buf) {
		flat = make([]*Term, 0, len(ts))
	}
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
	flat = b.dedup(flat)
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
	var buf [8]*Term
	flat := buf[:0]
	if len(ts) > len(buf) {
		flat = make([]*Term, 0, len(ts))
	}
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
	flat = b.dedup(flat)
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

// MaxAddArgs bounds the operands Add gives a sum by inlining nested sums.
// Unbounded inlining lets n = n + n double the operand list at every step;
// past the bound a nested sum stays one operand.
const MaxAddArgs = 256

// Add returns the sum of ts, inlining the operands of nested sums while
// the result stays within MaxAddArgs. Add() is 0.
func (b *Builder) Add(ts ...*Term) *Term {
	var cst int64
	var buf [8]*Term
	flat := buf[:0]
	if len(ts) > len(buf) {
		flat = make([]*Term, 0, len(ts))
	}
	for _, t := range ts {
		mustSort(t, Int)
		switch {
		case t.kind == KindIntConst:
			cst += t.ival
		case t.kind == KindAdd && len(flat)+len(t.args) < MaxAddArgs:
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
// A short list is scanned; a long one is checked against stamps by term id.
func (b *Builder) dedup(ts []*Term) []*Term {
	if len(ts) <= 16 {
		out := ts[:0]
	next:
		for _, t := range ts {
			for _, u := range out {
				if t == u {
					continue next
				}
			}
			out = append(out, t)
		}
		return out
	}
	if len(b.seen) < len(b.terms) {
		b.seen = make([]uint32, cap(b.terms))
		b.stamp = 0
	}
	b.stamp++
	out := ts[:0]
	for _, t := range ts {
		if b.seen[t.id] == b.stamp {
			continue
		}
		b.seen[t.id] = b.stamp
		out = append(out, t)
	}
	return out
}
