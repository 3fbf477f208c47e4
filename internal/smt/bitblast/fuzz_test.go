package bitblast

import (
	"math/rand"
	"testing"

	"buffy/internal/smt/cnf"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
)

// buildDAG builds a random term DAG from fuzzer bytes at width w and
// returns its int and bool terms.
//
// The DAG starts from three int and two bool variables. Each op is three
// bytes: the operator, then two operand picks; a third operand, where one
// is needed, is picked by the second pick byte with its nibbles swapped. A
// pick indexes the int or bool terms built so far, counted back from the
// newest. Besides the full-range variables, some int leaves have small
// ranges (an Ite over small constants, a 0/1 Ite) and some sit at the
// edges of the w-bit range, so the blaster's narrow path and its
// fallback to full width both see sums, products and comparisons.
func buildDAG(b *term.Builder, w int, ops []byte) (ints, bools []*term.Term) {
	ints = []*term.Term{b.Var("x0", term.Int), b.Var("x1", term.Int), b.Var("x2", term.Int)}
	bools = []*term.Term{b.Var("p0", term.Bool), b.Var("p1", term.Bool)}
	pickI := func(k byte) *term.Term { return ints[len(ints)-1-int(k)%len(ints)] }
	pickB := func(k byte) *term.Term { return bools[len(bools)-1-int(k)%len(bools)] }
	small := func(k byte) *term.Term { return b.IntConst(int64(int8(k)) >> 5) } // -4..3
	edge := int64(1)<<(w-1) - 1
	for ; len(ops) >= 3; ops = ops[3:] {
		op, i, j := ops[0], ops[1], ops[2]
		k := j>>4 | j<<4
		switch op % 21 {
		case 0:
			ints = append(ints, b.Add(pickI(i), pickI(j)))
		case 1:
			ints = append(ints, b.Add(pickI(i), pickI(j), pickI(k)))
		case 2:
			ints = append(ints, b.Sub(pickI(i), pickI(j)))
		case 3:
			ints = append(ints, b.Neg(pickI(i)))
		case 4:
			ints = append(ints, b.Mul(pickI(i), pickI(j)))
		case 5:
			ints = append(ints, b.Ite(pickB(i), pickI(j), pickI(k)))
		case 6: // a constant anywhere in the w-bit range
			v := int64(int8(i))
			if w < 8 {
				v >>= 8 - w
			} else {
				v <<= w - 8
			}
			ints = append(ints, b.IntConst(v))
		case 7:
			bools = append(bools, b.Lt(pickI(i), pickI(j)))
		case 8:
			bools = append(bools, b.Le(pickI(i), pickI(j)))
		case 9:
			bools = append(bools, b.Eq(pickI(i), pickI(j)))
		case 10:
			bools = append(bools, b.And(pickB(i), pickB(j), pickB(k)))
		case 11:
			bools = append(bools, b.Or(pickB(i), pickB(j)))
		case 12:
			bools = append(bools, b.Not(pickB(i)))
		case 13:
			bools = append(bools, b.Xor(pickB(i), pickB(j)))
		case 14:
			bools = append(bools, b.Implies(pickB(i), pickB(j)))
		case 15:
			bools = append(bools, b.Iff(pickB(i), pickB(j)))
		case 16:
			bools = append(bools, b.Ite(pickB(i), pickB(j), pickB(k)))
		case 17:
			bools = append(bools, b.BoolConst(i&1 == 1))
		case 18:
			ints = append(ints, b.Ite(pickB(i), small(j), small(k)))
		case 19:
			ints = append(ints, b.Ite(pickB(i), b.IntConst(1), b.IntConst(0)))
		case 20: // the largest or smallest w-bit values
			v := edge - int64(i&3)
			if j&1 == 1 {
				v = -edge - 1 + int64(i&3)
			}
			ints = append(ints, b.IntConst(v))
		}
	}
	return ints, bools
}

// pinVars draws a value for every variable of b from rng and returns it
// as an assignment and as the assumption literals that force it in bl.
func pinVars(b *term.Builder, bl *Blaster, rng *rand.Rand) (term.Assignment, []cnf.Lit) {
	w := bl.W
	a := term.Assignment{}
	var assume []cnf.Lit
	for _, v := range b.Vars() {
		if v.Sort() == term.Bool {
			val := rng.Intn(2) == 1
			a[v] = term.BoolValue(val)
			assume = append(assume, pin(bl.Bool(v), val))
			continue
		}
		val := rng.Int63n(1<<w) - 1<<(w-1)
		a[v] = term.IntValue(val)
		for i, bit := range bl.Bits(v) {
			assume = append(assume, pin(bit, val>>i&1 == 1))
		}
	}
	return a, assume
}

// blastDAG builds a random term DAG from fuzzer bytes at width 4..6, pins
// its free variables to values drawn from seed through solver assumptions,
// solves, and checks that every term's IntValue or BoolValue equals
// term.Eval at that width.
func blastDAG(t *testing.T, seed uint64, ops []byte) {
	rng := rand.New(rand.NewSource(int64(seed)))
	w := 4 + int(seed%3)
	b := term.NewBuilder()
	ints, bools := buildDAG(b, w, ops)

	s := sat.New()
	bl := New(w, s)
	for _, x := range ints {
		bl.Bits(x)
	}
	for _, p := range bools {
		bl.Bool(p)
	}
	a, assume := pinVars(b, bl, rng)
	if got := s.Solve(assume...); got != sat.Sat {
		t.Fatalf("width %d: %v with every input pinned, want sat", w, got)
	}
	ev := term.NewEvaluator(a, w)
	for _, x := range ints {
		if got, want := bl.IntValue(x), ev.Eval(x).Int; got != want {
			t.Fatalf("width %d, %v: blasted value %d, want %d", w, x, got, want)
		}
	}
	for _, p := range bools {
		if got, want := bl.BoolValue(p), ev.Eval(p).Bool; got != want {
			t.Fatalf("width %d, %v: blasted value %v, want %v", w, p, got, want)
		}
	}
}

// pin returns the literal that holds when l takes value val.
func pin(l cnf.Lit, val bool) cnf.Lit {
	if val {
		return l
	}
	return l.Neg()
}

// FuzzBlast checks the bit-blasted value of every subterm of a random
// term DAG against the term evaluator.
func FuzzBlast(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 48; i++ {
		ops := make([]byte, 3*(4+rng.Intn(40)))
		rng.Read(ops)
		f.Add(rng.Uint64(), ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 600 { // a couple of hundred ops; longer inputs only slow the fuzzer
			ops = ops[:600]
		}
		blastDAG(t, seed, ops)
	})
}
