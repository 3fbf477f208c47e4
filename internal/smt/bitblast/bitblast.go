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
// Range-narrowed integers: before an int term is encoded, a memoized
// pass that makes no variables gives it a signed interval. Constants are
// exact, Add/Sub/Neg/Mul use interval arithmetic, Ite takes the union of
// its branches, and a variable gets the full W-bit range. The term is
// computed on the fewest low bits k that hold its interval, and bits
// k..W-1 repeat bit k-1, so every bit vector stays W long. Eq/Lt/Le
// compare at the larger of their operands' widths. This is exact: the
// low k bits of a wrapping sum or product depend only on the operands'
// low k bits, and a term whose interval fits in W bits never wraps. A
// term whose interval leaves the W-bit range gets the full range and
// width. A popcount of eight bools, in [0, 8], runs its adders on 5 bits.
//
// All Buffy analyses are bounded (bounded loops, bounded buffers, bounded
// time horizon), so this lowering is a complete decision procedure for them:
// it is the same reduction FPerf relies on Z3's QF_BV/QF_LIA engines for.
package bitblast

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

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

	// index maps a term id to 1 + the position of the term's slot in
	// slots, or to 0 if it has none; ids are dense per builder and a
	// Blaster serves one builder. Most of a builder's terms are never
	// blasted, so the index is 4 bytes a term and slots holds only the
	// terms seen. lits holds the W bits of every encoded int term.
	index     []int32
	slots     []slot
	lits      []cnf.Lit
	encoded   int
	gateCache map[gateKey]cnf.Lit

	// full encodes every int term at full width W: the reference the
	// narrow path is tested against.
	full bool

	trueLit  cnf.Lit
	falseLit cnf.Lit
}

// A slot records one term: a bool term's literal, or an int term's value
// interval, its width and where its bits are.
type slot struct {
	lo, hi int64 // an int term's value interval, once ranged
	ref    int32 // a bool term's literal, or the offset of an int term's bits in lits
	width  uint8 // the fewest low bits whose sign extension holds [lo, hi]
	state  uint8
}

const (
	ranged  uint8 = 1 << iota // lo, hi and width are set
	encoded                   // ref is set
)

// New returns a Blaster with the given integer width emitting clauses into s.
func New(width int, s *sat.Solver) *Blaster { return newBlaster(width, s, false) }

// newBlaster returns a Blaster that narrows int terms to their ranges
// unless full is set.
func newBlaster(width int, s *sat.Solver, full bool) *Blaster {
	if width < MinWidth || width > MaxWidth {
		panic(fmt.Sprintf("bitblast: unsupported width %d", width))
	}
	bl := &Blaster{
		W:         width,
		s:         s,
		index:     make([]int32, 0, 4096),
		slots:     make([]slot, 0, 1024),
		lits:      make([]cnf.Lit, 0, 1024*width),
		gateCache: make(map[gateKey]cnf.Lit, 4096),
		full:      full,
	}
	vt := s.NewVar()
	bl.trueLit = cnf.PosLit(vt)
	bl.falseLit = cnf.NegLit(vt)
	s.AddClause(bl.trueLit)
	return bl
}

// Fork returns a Blaster over ns that reuses this blaster's encoding
// work: ns must be a CloneProblem of this blaster's solver so variable
// numbering matches, and the tables are copied so already-encoded terms
// resolve to the same literals while anything the fork encodes afterwards
// stays private to it. Forking is read-only on the receiver, so multiple
// forks may be taken concurrently between encodes.
func (bl *Blaster) Fork(ns *sat.Solver) *Blaster {
	f := *bl
	f.s = ns
	f.index = slices.Clone(bl.index)
	f.slots = slices.Clone(bl.slots)
	f.lits = slices.Clone(bl.lits)
	f.gateCache = maps.Clone(bl.gateCache)
	return &f
}

// NumTerms returns the number of distinct terms encoded so far.
func (bl *Blaster) NumTerms() int { return bl.encoded }

// slot returns t's slot, adding an empty one if t has none. The pointer
// is good until the next call that may add a slot.
func (bl *Blaster) slot(t *term.Term) *slot {
	id := int(t.ID())
	if id >= len(bl.index) {
		bl.index = append(bl.index, make([]int32, id+1-len(bl.index))...)
	}
	if bl.index[id] == 0 {
		bl.slots = append(bl.slots, slot{})
		bl.index[id] = int32(len(bl.slots))
	}
	return &bl.slots[bl.index[id]-1]
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
	if s := bl.slot(t); s.state&encoded != 0 {
		return cnf.Lit(s.ref)
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
		x, y := t.Arg(0), t.Arg(1)
		if x.Sort() == term.Bool {
			l = bl.xor2(bl.Bool(x), bl.Bool(y)).Neg()
		} else {
			k := bl.cmpWidth(x, y)
			l = bl.eqBits(bl.Bits(x)[:k], bl.Bits(y)[:k])
		}
	case term.KindLt:
		x, y := t.Arg(0), t.Arg(1)
		k := bl.cmpWidth(x, y)
		l = bl.signedLt(bl.Bits(x)[:k], bl.Bits(y)[:k])
	case term.KindLe:
		x, y := t.Arg(0), t.Arg(1)
		k := bl.cmpWidth(x, y)
		l = bl.signedLt(bl.Bits(y)[:k], bl.Bits(x)[:k]).Neg()
	case term.KindIte:
		c := bl.Bool(t.Arg(0))
		l = bl.mux(c, bl.Bool(t.Arg(1)), bl.Bool(t.Arg(2)))
	default:
		panic(fmt.Sprintf("bitblast: unhandled bool kind %v", t.Kind()))
	}
	s := bl.slot(t)
	s.ref, s.state = int32(l), s.state|encoded
	bl.encoded++
	return l
}

func (bl *Blaster) boolArgs(t *term.Term) []cnf.Lit {
	lits := make([]cnf.Lit, t.NumArgs())
	for i, a := range t.Args() {
		lits[i] = bl.Bool(a)
	}
	return lits
}

// Bits returns the W-bit little-endian encoding of integer term t. A term
// whose range needs only k < W bits is computed on its low k bits, and
// bits k..W-1 repeat bit k-1.
func (bl *Blaster) Bits(t *term.Term) []cnf.Lit {
	if t.Sort() != term.Int {
		panic(fmt.Sprintf("bitblast: Bits on %v-sorted term", t.Sort()))
	}
	if s := bl.slot(t); s.state&encoded != 0 {
		return bl.lits[s.ref : int(s.ref)+bl.W : int(s.ref)+bl.W]
	}
	// The range pass makes no variables and runs before any argument is
	// blasted, so narrowing does not change the order terms are blasted
	// in, which the search is sensitive to.
	k := bl.width(t)
	var bs []cnf.Lit
	switch t.Kind() {
	case term.KindIntConst:
		bs = bl.constBits(t.IntVal(), bl.W)
	case term.KindVar:
		bs = make([]cnf.Lit, bl.W)
		for i := range bs {
			bs[i] = cnf.PosLit(bl.s.NewVar())
		}
	case term.KindAdd:
		args := t.Args()
		bs = bl.Bits(args[0])[:k]
		for _, a := range args[1:] {
			bs = bl.adder(bs, bl.Bits(a)[:k], bl.falseLit)
		}
	case term.KindSub:
		a, b := bl.Bits(t.Arg(0))[:k], bl.Bits(t.Arg(1))[:k]
		bs = bl.adder(a, negated(b), bl.trueLit)
	case term.KindNeg:
		a := bl.Bits(t.Arg(0))[:k]
		bs = bl.adder(bl.constBits(0, k), negated(a), bl.trueLit)
	case term.KindMul:
		bs = bl.multiplier(bl.Bits(t.Arg(0))[:k], bl.Bits(t.Arg(1))[:k])
	case term.KindIte:
		c := bl.Bool(t.Arg(0))
		x, y := bl.Bits(t.Arg(1)), bl.Bits(t.Arg(2))
		bs = make([]cnf.Lit, k)
		for i := range bs {
			bs[i] = bl.mux(c, x[i], y[i])
		}
	default:
		panic(fmt.Sprintf("bitblast: unhandled int kind %v", t.Kind()))
	}
	off := len(bl.lits)
	bl.lits = append(bl.lits, bs...)
	for len(bl.lits) < off+bl.W {
		bl.lits = append(bl.lits, bs[len(bs)-1])
	}
	s := bl.slot(t)
	s.ref, s.state = int32(off), s.state|encoded
	bl.encoded++
	return bl.lits[off : off+bl.W : off+bl.W]
}

func negated(bs []cnf.Lit) []cnf.Lit {
	out := make([]cnf.Lit, len(bs))
	for i, b := range bs {
		out[i] = b.Neg()
	}
	return out
}

// constBits returns the low n bits of v.
func (bl *Blaster) constBits(v int64, n int) []cnf.Lit {
	bs := make([]cnf.Lit, n)
	for i := range bs {
		if v&(1<<uint(i)) != 0 {
			bs[i] = bl.trueLit
		} else {
			bs[i] = bl.falseLit
		}
	}
	return bs
}

// --- ranges ---

// boundLimit is beyond every W-bit range. Interval bounds are checked
// against it as they are summed or multiplied, so they never overflow
// int64: a bound past it means the term leaves the W-bit range.
const boundLimit = 1 << 62

// cmpWidth returns the width at which x and y compare: the larger of
// their widths, at which both are sign-extended.
func (bl *Blaster) cmpWidth(x, y *term.Term) int {
	return max(bl.width(x), bl.width(y))
}

// width returns the number of low bits int term t is computed on.
func (bl *Blaster) width(t *term.Term) int {
	_, _, k := bl.interval(t)
	return k
}

// interval returns the interval of int term t's W-bit value and its
// width. It is computed from the arguments' intervals and memoized, and
// makes no variables. A variable, and any term whose interval leaves the
// W-bit range, gets the full range and width W.
func (bl *Blaster) interval(t *term.Term) (lo, hi int64, width int) {
	if s := bl.slot(t); s.state&ranged != 0 {
		return s.lo, s.hi, int(s.width)
	}
	lo, hi, ok := bl.bounds(t)
	if bl.full || !ok || lo < bl.MinInt() || hi > bl.MaxInt() {
		lo, hi = bl.MinInt(), bl.MaxInt()
	}
	width = max(bits.Len64(uint64(lo^lo>>63)), bits.Len64(uint64(hi^hi>>63))) + 1
	s := bl.slot(t)
	s.lo, s.hi, s.width, s.state = lo, hi, uint8(width), s.state|ranged
	return lo, hi, width
}

// bounds applies interval arithmetic to t's arguments. ok is false for a
// variable and when a bound passes boundLimit.
func (bl *Blaster) bounds(t *term.Term) (lo, hi int64, ok bool) {
	switch t.Kind() {
	case term.KindIntConst:
		v := t.IntVal() << (64 - bl.W) >> (64 - bl.W) // wrapped to W bits
		return v, v, true
	case term.KindAdd:
		for _, a := range t.Args() {
			alo, ahi, _ := bl.interval(a)
			lo, hi = lo+alo, hi+ahi
			if lo < -boundLimit || hi > boundLimit {
				return 0, 0, false
			}
		}
		return lo, hi, true
	case term.KindSub:
		xlo, xhi, _ := bl.interval(t.Arg(0))
		ylo, yhi, _ := bl.interval(t.Arg(1))
		return xlo - yhi, xhi - ylo, true
	case term.KindNeg:
		xlo, xhi, _ := bl.interval(t.Arg(0))
		return -xhi, -xlo, true
	case term.KindMul:
		xlo, xhi, _ := bl.interval(t.Arg(0))
		ylo, yhi, _ := bl.interval(t.Arg(1))
		lo, hi = math.MaxInt64, math.MinInt64
		for _, x := range [2]int64{xlo, xhi} {
			for _, y := range [2]int64{ylo, yhi} {
				if x != 0 && abs(y) > boundLimit/abs(x) {
					return 0, 0, false
				}
				lo, hi = min(lo, x*y), max(hi, x*y)
			}
		}
		return lo, hi, true
	case term.KindIte:
		xlo, xhi, _ := bl.interval(t.Arg(1))
		ylo, yhi, _ := bl.interval(t.Arg(2))
		return min(xlo, ylo), max(xhi, yhi), true
	}
	return 0, 0, false
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
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

// adder returns a + b + cin truncated to len(a) bits.
func (bl *Blaster) adder(a, b []cnf.Lit, cin cnf.Lit) []cnf.Lit {
	out := make([]cnf.Lit, len(a))
	c := cin
	for i := range out {
		axb := bl.xor2(a[i], b[i])
		out[i] = bl.xor2(axb, c)
		if i < len(out)-1 { // last carry is discarded
			c = bl.maj(a[i], b[i], c)
		}
	}
	return out
}

// multiplier returns a*b truncated to len(a) bits (shift-add).
func (bl *Blaster) multiplier(a, b []cnf.Lit) []cnf.Lit {
	n := len(a)
	acc := bl.constBits(0, n)
	for i := 0; i < n; i++ {
		// partial = b[i] ? (a << i) : 0
		partial := make([]cnf.Lit, n)
		for j := 0; j < n; j++ {
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
	diffs := make([]cnf.Lit, len(a))
	for i := range diffs {
		diffs[i] = bl.xor2(a[i], b[i])
	}
	return bl.orN(diffs).Neg()
}

// signedLt returns a < b for two's-complement vectors: unsigned comparison
// with the sign bits flipped.
func (bl *Blaster) signedLt(a, b []cnf.Lit) cnf.Lit {
	lt := bl.falseLit
	for i := range a {
		ai, bi := a[i], b[i]
		if i == len(a)-1 { // flip sign bits
			ai, bi = ai.Neg(), bi.Neg()
		}
		// lt = (¬ai ∧ bi) ∨ ((ai ↔ bi) ∧ lt): bi where the bits differ,
		// lt where they agree, which is the majority of ¬ai, bi and lt.
		lt = bl.maj(ai.Neg(), bi, lt)
	}
	return lt
}

// --- model extraction ---

// Encoded reports whether t has been blasted, so that reading its value
// adds no variables.
func (bl *Blaster) Encoded(t *term.Term) bool {
	id := int(t.ID())
	return id < len(bl.index) && bl.index[id] != 0 && bl.slots[bl.index[id]-1].state&encoded != 0
}

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
