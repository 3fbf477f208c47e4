// Package bitblast lowers term DAGs over booleans and bounded integers to
// CNF. Integers become W-bit two's-complement bitvectors; boolean structure
// becomes Tseitin-encoded gates. Because terms are hash-consed, the blaster
// caches per term node, so shared subterms are encoded once. Internal gates
// (adder carries, comparator chains) are additionally deduplicated through a
// small structural gate cache.
//
// Every gate defines a fresh variable by a full equivalence, so its literal
// can be used in either polarity. The gates and what one costs:
//
//	gate          meaning                 vars  clauses
//	and2(a,b)     a ∧ b                      1        3
//	xor2(a,b)     a ⊕ b                      1        4
//	maj(a,b,c)    at least two of a, b, c    1        6
//	mux(c,x,y)    c ? x : y                  1        6
//	andN(a...)    a1 ∧ … ∧ an (n > 2)        1      n+1
//
// or2 and orN are and2 and andN with every literal negated. An adder bit
// is two xor2 (the sum) and a maj (the carry): 3 vars and 14 clauses. A
// signed comparator bit is one maj, lt' = maj(¬a, b, lt): 1 var and 6
// clauses. An integer Ite is W muxes. mux's six clauses are the four
// that define it plus x∧y→m and ¬x∧¬y→¬m, which are implied but let unit
// propagation fix m before c is decided.
//
// All Buffy analyses are bounded (bounded loops, bounded buffers, bounded
// time horizon), so this lowering is a complete decision procedure for them:
// it is the same reduction FPerf relies on Z3's QF_BV/QF_LIA engines for.
package bitblast

import (
	"fmt"
	"maps"

	"buffy/internal/smt/cnf"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
)

// DefaultWidth is the default two's-complement integer width. Twelve bits
// (range -2048..2047) comfortably covers packet counts, byte counts and
// queue indices in every model in this repository.
const DefaultWidth = 12

// MinWidth and MaxWidth bound the supported integer widths: below two bits
// two's complement degenerates, above 62 bits intermediate int64 arithmetic
// in the encoder would overflow. New panics outside this range, so callers
// accepting untrusted widths must validate against these bounds first.
const (
	MinWidth = 2
	MaxWidth = 62
)

type gateKey struct {
	op      uint8
	a, b, c cnf.Lit
}

const (
	gAnd uint8 = iota
	gXor
	gMaj
	gMux
)

// Blaster encodes terms into a sat.Solver.
type Blaster struct {
	W int
	s *sat.Solver

	boolCache map[*term.Term]cnf.Lit
	bitsCache map[*term.Term][]cnf.Lit
	gateCache map[gateKey]cnf.Lit

	trueLit  cnf.Lit
	falseLit cnf.Lit
}

// New returns a Blaster with the given integer width emitting clauses into s.
func New(width int, s *sat.Solver) *Blaster {
	if width < MinWidth || width > MaxWidth {
		panic(fmt.Sprintf("bitblast: unsupported width %d", width))
	}
	bl := &Blaster{
		W:         width,
		s:         s,
		boolCache: make(map[*term.Term]cnf.Lit, 1024),
		bitsCache: make(map[*term.Term][]cnf.Lit, 1024),
		gateCache: make(map[gateKey]cnf.Lit, 4096),
	}
	vt := s.NewVar()
	bl.trueLit = cnf.PosLit(vt)
	bl.falseLit = cnf.NegLit(vt)
	s.AddClause(bl.trueLit)
	return bl
}

// Fork returns a Blaster over ns that reuses this blaster's encoding
// work: ns must be a CloneProblem of this blaster's solver so variable
// numbering matches, and the caches are copied so already-encoded terms
// resolve to the same literals while anything the fork encodes afterwards
// stays private to it. Forking is read-only on the receiver, so multiple
// forks may be taken concurrently between encodes.
func (bl *Blaster) Fork(ns *sat.Solver) *Blaster {
	return &Blaster{
		W:         bl.W,
		s:         ns,
		boolCache: maps.Clone(bl.boolCache),
		bitsCache: maps.Clone(bl.bitsCache),
		gateCache: maps.Clone(bl.gateCache),
		trueLit:   bl.trueLit,
		falseLit:  bl.falseLit,
	}
}

// Assert adds clauses forcing t (a boolean term) to hold.
func (bl *Blaster) Assert(t *term.Term) {
	if t.Sort() != term.Bool {
		panic("bitblast: Assert on non-boolean term")
	}
	// Top-level conjunctions assert each conjunct: cheaper than a gate.
	if t.Kind() == term.KindAnd {
		for _, a := range t.Args() {
			bl.Assert(a)
		}
		return
	}
	// Top-level disjunctions become a single clause of operand literals.
	if t.Kind() == term.KindOr {
		lits := make([]cnf.Lit, t.NumArgs())
		for i, a := range t.Args() {
			lits[i] = bl.Bool(a)
		}
		bl.s.AddClause(lits...)
		return
	}
	bl.s.AddClause(bl.Bool(t))
}

// Bool returns the literal representing boolean term t.
func (bl *Blaster) Bool(t *term.Term) cnf.Lit {
	if t.Sort() != term.Bool {
		panic(fmt.Sprintf("bitblast: Bool on %v-sorted term", t.Sort()))
	}
	if l, ok := bl.boolCache[t]; ok {
		return l
	}
	var l cnf.Lit
	switch t.Kind() {
	case term.KindBoolConst:
		if t.BoolVal() {
			l = bl.trueLit
		} else {
			l = bl.falseLit
		}
	case term.KindVar:
		l = cnf.PosLit(bl.s.NewVar())
	case term.KindNot:
		l = bl.Bool(t.Arg(0)).Neg()
	case term.KindAnd:
		l = bl.andN(bl.boolArgs(t))
	case term.KindOr:
		l = bl.orN(bl.boolArgs(t))
	case term.KindXor:
		l = bl.xor2(bl.Bool(t.Arg(0)), bl.Bool(t.Arg(1)))
	case term.KindImplies:
		l = bl.orN([]cnf.Lit{bl.Bool(t.Arg(0)).Neg(), bl.Bool(t.Arg(1))})
	case term.KindIff:
		l = bl.xor2(bl.Bool(t.Arg(0)), bl.Bool(t.Arg(1))).Neg()
	case term.KindEq:
		if t.Arg(0).Sort() == term.Bool {
			l = bl.xor2(bl.Bool(t.Arg(0)), bl.Bool(t.Arg(1))).Neg()
		} else {
			l = bl.eqBits(bl.Bits(t.Arg(0)), bl.Bits(t.Arg(1)))
		}
	case term.KindLt:
		l = bl.signedLt(bl.Bits(t.Arg(0)), bl.Bits(t.Arg(1)))
	case term.KindLe:
		l = bl.signedLt(bl.Bits(t.Arg(1)), bl.Bits(t.Arg(0))).Neg()
	case term.KindIte:
		c := bl.Bool(t.Arg(0))
		l = bl.mux(c, bl.Bool(t.Arg(1)), bl.Bool(t.Arg(2)))
	default:
		panic(fmt.Sprintf("bitblast: unhandled bool kind %v", t.Kind()))
	}
	bl.boolCache[t] = l
	return l
}

func (bl *Blaster) boolArgs(t *term.Term) []cnf.Lit {
	lits := make([]cnf.Lit, t.NumArgs())
	for i, a := range t.Args() {
		lits[i] = bl.Bool(a)
	}
	return lits
}

// Bits returns the W-bit little-endian encoding of integer term t.
func (bl *Blaster) Bits(t *term.Term) []cnf.Lit {
	if t.Sort() != term.Int {
		panic(fmt.Sprintf("bitblast: Bits on %v-sorted term", t.Sort()))
	}
	if bs, ok := bl.bitsCache[t]; ok {
		return bs
	}
	var bs []cnf.Lit
	switch t.Kind() {
	case term.KindIntConst:
		bs = bl.constBits(t.IntVal())
	case term.KindVar:
		bs = make([]cnf.Lit, bl.W)
		for i := range bs {
			bs[i] = cnf.PosLit(bl.s.NewVar())
		}
	case term.KindAdd:
		args := t.Args()
		bs = bl.Bits(args[0])
		for _, a := range args[1:] {
			bs = bl.adder(bs, bl.Bits(a), bl.falseLit)
		}
	case term.KindSub:
		a, b := bl.Bits(t.Arg(0)), bl.Bits(t.Arg(1))
		nb := make([]cnf.Lit, bl.W)
		for i := range nb {
			nb[i] = b[i].Neg()
		}
		bs = bl.adder(a, nb, bl.trueLit)
	case term.KindNeg:
		a := bl.Bits(t.Arg(0))
		na := make([]cnf.Lit, bl.W)
		for i := range na {
			na[i] = a[i].Neg()
		}
		bs = bl.adder(bl.constBits(0), na, bl.trueLit)
	case term.KindMul:
		bs = bl.multiplier(bl.Bits(t.Arg(0)), bl.Bits(t.Arg(1)))
	case term.KindIte:
		c := bl.Bool(t.Arg(0))
		x, y := bl.Bits(t.Arg(1)), bl.Bits(t.Arg(2))
		bs = make([]cnf.Lit, bl.W)
		for i := range bs {
			bs[i] = bl.mux(c, x[i], y[i])
		}
	default:
		panic(fmt.Sprintf("bitblast: unhandled int kind %v", t.Kind()))
	}
	bl.bitsCache[t] = bs
	return bs
}

func (bl *Blaster) constBits(v int64) []cnf.Lit {
	bs := make([]cnf.Lit, bl.W)
	for i := 0; i < bl.W; i++ {
		if v&(1<<uint(i)) != 0 {
			bs[i] = bl.trueLit
		} else {
			bs[i] = bl.falseLit
		}
	}
	return bs
}

// --- gates ---

func (bl *Blaster) and2(a, b cnf.Lit) cnf.Lit {
	// Constant folding against the true/false literals.
	switch {
	case a == bl.falseLit || b == bl.falseLit:
		return bl.falseLit
	case a == bl.trueLit:
		return b
	case b == bl.trueLit:
		return a
	case a == b:
		return a
	case a == b.Neg():
		return bl.falseLit
	}
	if a > b {
		a, b = b, a
	}
	k := gateKey{op: gAnd, a: a, b: b}
	if y, ok := bl.gateCache[k]; ok {
		return y
	}
	y := cnf.PosLit(bl.s.NewVar())
	bl.s.AddClause(y.Neg(), a)
	bl.s.AddClause(y.Neg(), b)
	bl.s.AddClause(y, a.Neg(), b.Neg())
	bl.gateCache[k] = y
	return y
}

func (bl *Blaster) or2(a, b cnf.Lit) cnf.Lit {
	return bl.and2(a.Neg(), b.Neg()).Neg()
}

func (bl *Blaster) xor2(a, b cnf.Lit) cnf.Lit {
	switch {
	case a == bl.falseLit:
		return b
	case b == bl.falseLit:
		return a
	case a == bl.trueLit:
		return b.Neg()
	case b == bl.trueLit:
		return a.Neg()
	case a == b:
		return bl.falseLit
	case a == b.Neg():
		return bl.trueLit
	}
	// Normalize: cache on positive phase of the smaller literal.
	neg := false
	if a.Sign() {
		a, neg = a.Neg(), !neg
	}
	if b.Sign() {
		b, neg = b.Neg(), !neg
	}
	if a > b {
		a, b = b, a
	}
	k := gateKey{op: gXor, a: a, b: b}
	y, ok := bl.gateCache[k]
	if !ok {
		y = cnf.PosLit(bl.s.NewVar())
		bl.s.AddClause(y.Neg(), a, b)
		bl.s.AddClause(y.Neg(), a.Neg(), b.Neg())
		bl.s.AddClause(y, a.Neg(), b)
		bl.s.AddClause(y, a, b.Neg())
		bl.gateCache[k] = y
	}
	if neg {
		return y.Neg()
	}
	return y
}

func (bl *Blaster) andN(lits []cnf.Lit) cnf.Lit {
	out := make([]cnf.Lit, 0, len(lits))
	for _, l := range lits {
		if l == bl.falseLit {
			return bl.falseLit
		}
		if l == bl.trueLit {
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return bl.trueLit
	case 1:
		return out[0]
	case 2:
		return bl.and2(out[0], out[1])
	}
	y := cnf.PosLit(bl.s.NewVar())
	big := make([]cnf.Lit, 0, len(out)+1)
	big = append(big, y)
	for _, l := range out {
		bl.s.AddClause(y.Neg(), l)
		big = append(big, l.Neg())
	}
	bl.s.AddClause(big...)
	return y
}

func (bl *Blaster) orN(lits []cnf.Lit) cnf.Lit {
	neg := make([]cnf.Lit, len(lits))
	for i, l := range lits {
		neg[i] = l.Neg()
	}
	return bl.andN(neg).Neg()
}

// maj returns the majority of a, b and c: true when at least two are.
func (bl *Blaster) maj(a, b, c cnf.Lit) cnf.Lit {
	// A repeated input decides the vote; a complementary pair cancels.
	switch {
	case a == b || a == c:
		return a
	case b == c:
		return b
	case a == b.Neg():
		return c
	case a == c.Neg():
		return b
	case b == c.Neg():
		return a
	}
	// A constant input turns the vote into an and or an or of the others.
	switch {
	case a == bl.trueLit:
		return bl.or2(b, c)
	case a == bl.falseLit:
		return bl.and2(b, c)
	case b == bl.trueLit:
		return bl.or2(a, c)
	case b == bl.falseLit:
		return bl.and2(a, c)
	case c == bl.trueLit:
		return bl.or2(a, b)
	case c == bl.falseLit:
		return bl.and2(a, b)
	}
	// Normalize: sort the inputs, then use maj(¬a,¬b,¬c) = ¬maj(a,b,c) to
	// cache with the smallest input positive. The three variables are
	// distinct here, so negating all three keeps them sorted.
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	neg := a.Sign()
	if neg {
		a, b, c = a.Neg(), b.Neg(), c.Neg()
	}
	k := gateKey{op: gMaj, a: a, b: b, c: c}
	m, ok := bl.gateCache[k]
	if !ok {
		m = cnf.PosLit(bl.s.NewVar())
		bl.s.AddClause(m, a.Neg(), b.Neg())
		bl.s.AddClause(m, a.Neg(), c.Neg())
		bl.s.AddClause(m, b.Neg(), c.Neg())
		bl.s.AddClause(m.Neg(), a, b)
		bl.s.AddClause(m.Neg(), a, c)
		bl.s.AddClause(m.Neg(), b, c)
		bl.gateCache[k] = m
	}
	if neg {
		return m.Neg()
	}
	return m
}

// mux returns c ? x : y.
func (bl *Blaster) mux(c, x, y cnf.Lit) cnf.Lit {
	switch {
	case c == bl.trueLit:
		return x
	case c == bl.falseLit:
		return y
	case x == y:
		return x
	case x == y.Neg():
		return bl.xor2(c, x).Neg()
	case x == c || x == bl.trueLit:
		return bl.or2(c, y)
	case x == c.Neg() || x == bl.falseLit:
		return bl.and2(c.Neg(), y)
	case y == c || y == bl.falseLit:
		return bl.and2(c, x)
	case y == c.Neg() || y == bl.trueLit:
		return bl.or2(c.Neg(), x)
	}
	// Normalize: mux(¬c,x,y) = mux(c,y,x) and mux(c,¬x,¬y) = ¬mux(c,x,y),
	// so the cache sees a positive selector and a positive then-branch.
	if c.Sign() {
		c, x, y = c.Neg(), y, x
	}
	neg := x.Sign()
	if neg {
		x, y = x.Neg(), y.Neg()
	}
	k := gateKey{op: gMux, a: c, b: x, c: y}
	m, ok := bl.gateCache[k]
	if !ok {
		m = cnf.PosLit(bl.s.NewVar())
		bl.s.AddClause(m.Neg(), c.Neg(), x)
		bl.s.AddClause(m, c.Neg(), x.Neg())
		bl.s.AddClause(m.Neg(), c, y)
		bl.s.AddClause(m, c, y.Neg())
		bl.s.AddClause(m, x.Neg(), y.Neg())
		bl.s.AddClause(m.Neg(), x, y)
		bl.gateCache[k] = m
	}
	if neg {
		return m.Neg()
	}
	return m
}

// --- arithmetic ---

// adder returns a + b + cin truncated to W bits.
func (bl *Blaster) adder(a, b []cnf.Lit, cin cnf.Lit) []cnf.Lit {
	out := make([]cnf.Lit, bl.W)
	c := cin
	for i := 0; i < bl.W; i++ {
		axb := bl.xor2(a[i], b[i])
		out[i] = bl.xor2(axb, c)
		if i < bl.W-1 { // last carry is discarded
			c = bl.maj(a[i], b[i], c)
		}
	}
	return out
}

// multiplier returns a*b truncated to W bits (shift-add).
func (bl *Blaster) multiplier(a, b []cnf.Lit) []cnf.Lit {
	acc := bl.constBits(0)
	for i := 0; i < bl.W; i++ {
		// partial = b[i] ? (a << i) : 0
		partial := make([]cnf.Lit, bl.W)
		for j := 0; j < bl.W; j++ {
			if j < i {
				partial[j] = bl.falseLit
			} else {
				partial[j] = bl.and2(b[i], a[j-i])
			}
		}
		acc = bl.adder(acc, partial, bl.falseLit)
	}
	return acc
}

func (bl *Blaster) eqBits(a, b []cnf.Lit) cnf.Lit {
	diffs := make([]cnf.Lit, bl.W)
	for i := 0; i < bl.W; i++ {
		diffs[i] = bl.xor2(a[i], b[i])
	}
	return bl.orN(diffs).Neg()
}

// signedLt returns a < b for two's-complement vectors: unsigned comparison
// with the sign bits flipped.
func (bl *Blaster) signedLt(a, b []cnf.Lit) cnf.Lit {
	lt := bl.falseLit
	for i := 0; i < bl.W; i++ {
		ai, bi := a[i], b[i]
		if i == bl.W-1 { // flip sign bits
			ai, bi = ai.Neg(), bi.Neg()
		}
		// lt = (¬ai ∧ bi) ∨ ((ai ↔ bi) ∧ lt): bi where the bits differ,
		// lt where they agree, which is the majority of ¬ai, bi and lt.
		lt = bl.maj(ai.Neg(), bi, lt)
	}
	return lt
}

// --- model extraction ---

// BoolValue reads the model value of boolean term t after a Sat result.
// Terms never blasted are evaluated structurally where possible.
func (bl *Blaster) BoolValue(t *term.Term) bool {
	return bl.s.LitTrue(bl.Bool(t))
}

// IntValue reads the model value of integer term t after a Sat result.
func (bl *Blaster) IntValue(t *term.Term) int64 {
	bs := bl.Bits(t)
	var v int64
	for i, b := range bs {
		if bl.s.LitTrue(b) {
			v |= 1 << uint(i)
		}
	}
	if v&(1<<uint(bl.W-1)) != 0 {
		v -= 1 << uint(bl.W)
	}
	return v
}

// MinInt and MaxInt return the representable signed range.
func (bl *Blaster) MinInt() int64 { return -(1 << uint(bl.W-1)) }

// MaxInt returns the largest representable signed value.
func (bl *Blaster) MaxInt() int64 { return 1<<uint(bl.W-1) - 1 }
