package term

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refInterner is the reference the intern table is checked against: a map
// keyed by a term's full structure, handing out ids in creation order.
type refInterner struct {
	ids     map[string]int32
	args    [][]int32 // operand ids, by term id
	lookups int64
	key     []byte
}

func newRefInterner() *refInterner {
	r := &refInterner{ids: map[string]int32{}}
	r.intern(KindBoolConst, Bool, nil, 1, "") // true
	r.intern(KindBoolConst, Bool, nil, 0, "") // false
	return r
}

// intern returns the id the structure must get and whether it is new.
func (r *refInterner) intern(k Kind, s Sort, args []*Term, ival int64, name string) (int32, bool) {
	r.lookups++
	key := fmt.Appendf(r.key[:0], "%d/%d/%d/%q", k, s, ival, name)
	for _, a := range args {
		key = fmt.Appendf(key, "/%d", a.ID())
	}
	r.key = key
	if id, ok := r.ids[string(key)]; ok {
		return id, false
	}
	id := int32(len(r.ids))
	r.ids[string(key)] = id
	ids := make([]int32, len(args))
	for i, a := range args {
		ids[i] = a.ID()
	}
	r.args = append(r.args, ids)
	return id, true
}

var internKinds = []Kind{KindNot, KindAnd, KindOr, KindXor, KindEq, KindLt, KindAdd, KindMul, KindIte}

// runInternOps drives b.mk with the operation sequence encoded in ops (four
// bytes an operation, plus one per operand) and checks every result against
// a refInterner: the id each term gets, pointer equality exactly when the
// structure is equal, NumTerms and Lookups. Operand slices are overwritten
// after each call, so a term that kept its caller's slice shows up as
// changed operands.
func runInternOps(t testing.TB, b *Builder, ops []byte) {
	ref := newRefInterner()
	byID := []*Term{b.True(), b.False()}
	check := func(k Kind, s Sort, args []*Term, ival int64, name string) {
		got := b.mk(k, s, args, ival, name)
		want, fresh := ref.intern(k, s, args, ival, name)
		if fresh {
			byID = append(byID, got)
		}
		if got.ID() != want || byID[want] != got {
			t.Fatalf("mk(%v %v %d %q %d args): got id %d (%p), want id %d (%p)",
				k, s, ival, name, len(args), got.ID(), got, want, byID[want])
		}
		if got.Kind() != k || got.Sort() != s || got.IntVal() != ival || got.Name() != name {
			t.Fatalf("term %d: fields differ from the structure it was built from", want)
		}
		if b.NumTerms() != len(ref.ids) || b.Lookups() != ref.lookups {
			t.Fatalf("NumTerms/Lookups = %d/%d, want %d/%d", b.NumTerms(), b.Lookups(), len(ref.ids), ref.lookups)
		}
		for i := range args {
			args[i] = nil
		}
	}
	for len(ops) >= 4 {
		op, x, y, z := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		switch op % 5 {
		case 0: // constants: signed 16-bit values shifted left, so negatives and multiples of 2^k
			check(KindIntConst, Int, nil, int64(int16(uint16(x)|uint16(y)<<8))<<(z%48), "")
		case 1: // variables, names past one hash word included
			check(KindVar, Sort(x%2), nil, 0, fmt.Sprintf("v%d%s", y%32, make([]byte, z%20)))
		case 2, 3: // compound terms of up to six operands, one byte each
			n := min(int(y%7), len(ops))
			args := make([]*Term, n)
			for i, c := range ops[:n] {
				if c&0x80 != 0 { // a recent term
					args[i] = byID[len(byID)-1-int(c&0x7f)%len(byID)]
				} else { // one of a few early terms, so rebuilds differ late in the list
					args[i] = byID[int(c%4)%len(byID)]
				}
			}
			ops = ops[n:]
			check(internKinds[int(x)%len(internKinds)], Sort(z%2), args, int64(z>>1&1), "")
		case 4: // a run of sequential constants, to push the index through growths
			for i := 0; i < 32*(int(x%8)+1); i++ {
				check(KindIntConst, Int, nil, int64(y)<<8+int64(i), "")
			}
		}
	}
	for id, tm := range byID {
		if b.terms[id] != tm {
			t.Fatalf("terms[%d] is not the term built with that id", id)
		}
		if len(tm.Args()) != len(ref.args[id]) {
			t.Fatalf("term %d has %d operands, want %d", id, len(tm.Args()), len(ref.args[id]))
		}
		for i, a := range tm.Args() {
			if a == nil || a.ID() != ref.args[id][i] {
				t.Fatalf("term %d operand %d changed after the build", id, i)
			}
		}
	}
}

// TestInternDifferential runs long random operation sequences, each across
// several growths of the index, against the reference interner.
func TestInternDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 4*20000)
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		b := newBuilder(seed)
		runInternOps(t, b, ops)
		if b.NumTerms() < 8*initialIndex {
			t.Fatalf("seed %d: only %d terms, too few to grow the index several times", seed, b.NumTerms())
		}
	}
}

func FuzzIntern(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte{0, 1, 2, 3, 1, 0, 1, 9, 2, 3, 4, 5, 4, 7, 1, 0, 3, 8, 5, 1})
	f.Add(uint64(7), []byte{4, 7, 0, 0, 4, 7, 1, 0, 4, 7, 0, 0, 2, 1, 6, 2, 3, 2, 5, 9})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 1024 { // enough for a few growths; longer inputs only slow the fuzzer
			ops = ops[:1024]
		}
		runInternOps(t, newBuilder(seed), ops)
	})
}

// TestInternProbeLengthAdversarial builds constants in the patterns a weak
// hash maps onto few slots: sequential values, multiples of 2^k and
// negatives. The mean number of index slots a lookup examines stays small
// under every seed.
func TestInternProbeLengthAdversarial(t *testing.T) {
	var consts []int64
	for i := int64(0); i < 20000; i++ {
		consts = append(consts, i, -i-1)
	}
	for k := 8; k < 64; k += 8 {
		for i := int64(1); i <= 2000; i++ {
			consts = append(consts, i<<k)
		}
	}
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
		b := newBuilder(seed)
		v := b.Var("v", Int)
		for _, c := range consts {
			b.Add(v, b.IntConst(c))
		}
		if b.NumTerms() < 100000 {
			t.Fatalf("built %d terms, want at least 100000", b.NumTerms())
		}
		if mean := float64(b.probes) / float64(b.lookups); mean > 4 {
			t.Errorf("seed %#x: mean probe length %.2f over %d lookups, want <= 4", seed, mean, b.lookups)
		}
	}
}

// TestInternHashCollisions: among 2^18 four-operand terms that differ only
// in their last operand, a few pairs share a 32-bit hash (about eight are
// expected). Each stays a term of its own, and rebuilding either finds it.
func TestInternHashCollisions(t *testing.T) {
	b := newBuilder(1)
	x, y, z := b.Var("x", Int), b.Var("y", Int), b.Var("z", Int)
	const n = 1 << 18
	byHash := make(map[uint32]*Term, n)
	var pairs [][2]*Term
	for i := int64(0); i < n; i++ {
		tm := b.mk(KindAdd, Int, []*Term{x, y, z, b.IntConst(i)}, 0, "")
		if u, ok := byHash[tm.hash]; ok {
			pairs = append(pairs, [2]*Term{u, tm})
		} else {
			byHash[tm.hash] = tm
		}
	}
	if len(pairs) == 0 {
		t.Fatalf("no hash collisions among %d terms", n)
	}
	for _, p := range pairs {
		if p[0] == p[1] || p[0].Arg(3) == p[1].Arg(3) {
			t.Fatalf("terms with different last operands were merged: %v", p[0])
		}
		for _, u := range p {
			if b.mk(KindAdd, Int, []*Term{x, y, z, u.Arg(3)}, 0, "") != u {
				t.Fatalf("rebuilding %v found another term", u)
			}
		}
	}
}

// TestArgsOutliveCallerSlice: a term keeps its own copy of its operands, so
// reusing the caller's slice (or the constructor's stack buffer) afterwards
// leaves Args unchanged.
func TestArgsOutliveCallerSlice(t *testing.T) {
	b := NewBuilder()
	p, q, r := b.Var("p", Bool), b.Var("q", Bool), b.Var("r", Bool)
	args := []*Term{p, q, r}
	and := b.And(args...)
	args[0], args[1], args[2] = r, r, q
	b.Or(args...)
	b.And(q, r)
	if got := and.Args(); len(got) != 3 || got[0] != p || got[1] != q || got[2] != r {
		t.Errorf("And(p, q, r).Args() = %v after reusing the operand slice", got)
	}
	if and2 := b.And(p, q, r); and2 != and {
		t.Error("rebuilding And(p, q, r) gave a different term")
	}
}

// TestRebuildAllocatesNothing: looking up a term that already exists
// allocates nothing; operand lists stay on the caller's stack.
func TestRebuildAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", Int), b.Var("y", Int)
	p, q := b.Lt(x, y), b.Var("q", Bool)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Eq", func() { b.Eq(x, y) }},
		{"Ite", func() { b.Ite(p, x, y) }},
		{"Not", func() { b.Not(p) }},
		{"And", func() { b.And(p, q, p) }},
		{"Add", func() { b.Add(x, y, b.IntConst(3)) }},
	} {
		c.f()
		if a := testing.AllocsPerRun(100, c.f); a != 0 {
			t.Errorf("rebuilding %s allocates %.1f times, want 0", c.name, a)
		}
	}
}

// TestDedupLongList covers the stamp path of dedup: a long operand list
// loses its duplicates and keeps first-occurrence order, before and after
// the stamp table grows with the builder.
func TestDedupLongList(t *testing.T) {
	b := NewBuilder()
	ps := make([]*Term, 40)
	for i := range ps {
		ps[i] = b.Var(fmt.Sprintf("p%d", i), Bool)
	}
	for round := 0; round < 2; round++ {
		var ts []*Term
		for i := range ps {
			ts = append(ts, ps[i], ps[len(ps)-1-i], ps[i])
		}
		got := b.Or(ts...).Args()
		if len(got) != len(ps) {
			t.Fatalf("round %d: %d operands after dedup, want %d", round, len(got), len(ps))
		}
		for i := range ps[:len(ps)/2] {
			if got[2*i] != ps[i] || got[2*i+1] != ps[len(ps)-1-i] {
				t.Fatalf("round %d: operand order is not first occurrence: %v", round, got)
			}
		}
		for i := 0; i < 3*initialIndex; i++ { // grow past the stamp table
			b.IntConst(int64(round<<20 + i))
		}
		ps = append(ps[:0:0], ps...)
		ps[0] = b.Var(fmt.Sprintf("late%d", round), Bool)
	}
}
