package term

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	y := b.Var("y", Int)
	if b.Add(x, y) != b.Add(x, y) {
		t.Error("identical Add terms should be pointer-equal")
	}
	if b.And(b.Lt(x, y), b.Lt(x, y)) != b.Lt(x, y) {
		t.Error("And should deduplicate identical conjuncts")
	}
	if b.IntConst(5) != b.IntConst(5) {
		t.Error("identical constants should be pointer-equal")
	}
}

// TestNaryInterning covers the interning of terms with more than three
// arguments: rebuilt terms are pointer-equal whatever their ids' width, and
// a different argument order or arity is a different term.
func TestNaryInterning(t *testing.T) {
	b := NewBuilder()
	// Enough variables that ids cross 255 and 65,535.
	const nvars = 66000
	ps := make([]*Term, nvars)
	xs := make([]*Term, nvars)
	for i := range ps {
		ps[i] = b.Var(fmt.Sprintf("p%d", i), Bool)
		xs[i] = b.Var(fmt.Sprintf("x%d", i), Int)
	}
	if last := xs[nvars-1].ID(); last <= 1<<16 {
		t.Fatalf("largest id %d does not pass 65,535", last)
	}
	// pick returns n terms from ts spread over the whole id range, so the
	// arguments past the third have 1-, 2- and 3-byte ids.
	pick := func(ts []*Term, n int) []*Term {
		out := make([]*Term, n)
		for i := range out {
			out[i] = ts[(i*7919+1)%len(ts)]
		}
		return out
	}
	for _, n := range []int{4, 5, 17, 256, 333} {
		for _, c := range []struct {
			name string
			mk   func(...*Term) *Term
			ts   []*Term
		}{{"And", b.And, ps}, {"Add", b.Add, xs}} {
			args := pick(c.ts, n)
			first := c.mk(args...)
			if first.NumArgs() != n {
				t.Fatalf("%s/%d: built %d args, want %d", c.name, n, first.NumArgs(), n)
			}
			l0, terms0 := b.Lookups(), b.NumTerms()
			if again := c.mk(append([]*Term(nil), args...)...); again != first {
				t.Errorf("%s/%d: rebuilt term is not pointer-equal", c.name, n)
			}
			if b.Lookups() != l0+1 || b.NumTerms() != terms0 {
				t.Errorf("%s/%d: rebuild made %d lookups and %d terms, want 1 hit and 0 terms",
					c.name, n, b.Lookups()-l0, b.NumTerms()-terms0)
			}
			swapped := append([]*Term(nil), args...)
			swapped[n-1], swapped[n-2] = swapped[n-2], swapped[n-1]
			if c.mk(swapped...) == first {
				t.Errorf("%s/%d: swapping the last two arguments gave the same term", c.name, n)
			}
			if c.mk(args[:n-1]...) == first {
				t.Errorf("%s/%d: dropping the last argument gave the same term", c.name, n)
			}
			if grown := c.mk(append(append([]*Term(nil), args...), c.ts[300])...); grown == first || grown.NumArgs() != n+1 {
				t.Errorf("%s/%d: adding an argument gave the same term", c.name, n)
			}
		}
	}
	// Rebuilding a wide term allocates at most its flattened operand list.
	args := pick(xs, 300)
	b.Add(args...)
	if a := testing.AllocsPerRun(20, func() { b.Add(args...) }); a > 3 {
		t.Errorf("rebuilding a 300-argument Add allocates %.0f times, want at most 3", a)
	}
}

func TestLookupsCountHitsAndMisses(t *testing.T) {
	b := NewBuilder()
	l0, n0 := b.Lookups(), b.NumTerms()
	x := b.Var("x", Int)    // miss
	b.Var("x", Int)         // found in the variable table: no lookup
	y := b.Var("y", Int)    // miss
	b.Add(x, y)             // miss
	b.Add(x, y)             // hit
	b.Add(x, b.IntConst(0)) // IntConst(0) misses; Add folds to x without a lookup
	lookups, misses := b.Lookups()-l0, int64(b.NumTerms()-n0)
	if lookups != 5 || misses != 4 {
		t.Errorf("got %d lookups and %d new terms, want 5 and 4", lookups, misses)
	}
}

func TestVarRedeclarationPanics(t *testing.T) {
	b := NewBuilder()
	b.Var("x", Int)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on sort-changing redeclaration")
		}
	}()
	b.Var("x", Bool)
}

func TestBooleanSimplification(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", Bool)
	q := b.Var("q", Bool)

	cases := []struct {
		got, want *Term
		name      string
	}{
		{b.Not(b.Not(p)), p, "double negation"},
		{b.And(p, b.True()), p, "and true"},
		{b.And(p, b.False()), b.False(), "and false"},
		{b.Or(p, b.False()), p, "or false"},
		{b.Or(p, b.True()), b.True(), "or true"},
		{b.And(), b.True(), "empty and"},
		{b.Or(), b.False(), "empty or"},
		{b.Implies(b.True(), q), q, "true implies"},
		{b.Implies(p, p), b.True(), "self implication"},
		{b.Xor(p, p), b.False(), "xor self"},
		{b.Xor(p, b.False()), p, "xor false"},
		{b.Iff(p, p), b.True(), "iff self"},
		{b.Eq(p, q), b.Iff(p, q), "bool eq is iff"},
		{b.Ite(b.True(), p, q), p, "ite true"},
		{b.Ite(b.False(), p, q), q, "ite false"},
		{b.Ite(p, b.True(), b.False()), p, "ite as identity"},
		{b.Ite(p, b.False(), b.True()), b.Not(p), "ite as negation"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestArithmeticFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)

	if got := b.Add(b.IntConst(2), b.IntConst(3)); got != b.IntConst(5) {
		t.Errorf("2+3 folded to %s", got)
	}
	if got := b.Add(x, b.IntConst(0)); got != x {
		t.Errorf("x+0 folded to %s", got)
	}
	if got := b.Mul(x, b.IntConst(1)); got != x {
		t.Errorf("x*1 folded to %s", got)
	}
	if got := b.Mul(x, b.IntConst(0)); got != b.IntConst(0) {
		t.Errorf("x*0 folded to %s", got)
	}
	if got := b.Sub(x, x); got != b.IntConst(0) {
		t.Errorf("x-x folded to %s", got)
	}
	if got := b.Neg(b.Neg(x)); got != x {
		t.Errorf("--x folded to %s", got)
	}
	if got := b.Sub(b.IntConst(7), b.IntConst(9)); got != b.IntConst(-2) {
		t.Errorf("7-9 folded to %s", got)
	}
	// Nested adds flatten and fold constants.
	sum := b.Add(b.Add(x, b.IntConst(1)), b.IntConst(2))
	want := b.Add(x, b.IntConst(3))
	if sum != want {
		t.Errorf("nested add: got %s, want %s", sum, want)
	}
}

func TestComparisonFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	if b.Lt(b.IntConst(1), b.IntConst(2)) != b.True() {
		t.Error("1<2 should fold to true")
	}
	if b.Le(b.IntConst(3), b.IntConst(2)) != b.False() {
		t.Error("3<=2 should fold to false")
	}
	if b.Le(x, x) != b.True() {
		t.Error("x<=x should fold to true")
	}
	if b.Lt(x, x) != b.False() {
		t.Error("x<x should fold to false")
	}
	if b.Gt(x, b.IntConst(0)) != b.Lt(b.IntConst(0), x) {
		t.Error("Gt should normalize to Lt")
	}
	if b.Eq(b.IntConst(4), b.IntConst(4)) != b.True() {
		t.Error("4==4 should fold to true")
	}
}

// TestAddFlatteningBounded: n = n + n doubles a fully inlined operand
// list, so 40 doublings would need 2^40 operands. With the bound each
// doubling builds one term of at most MaxAddArgs operands, and the sum
// still evaluates to 3 * 2^40.
func TestAddFlatteningBounded(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	n := b.Add(x, b.IntConst(0))
	before := b.NumTerms()
	const doublings = 40
	for i := 0; i < doublings; i++ {
		n = b.Add(n, n)
	}
	if got := b.NumTerms() - before; got != doublings {
		t.Errorf("%d doublings built %d terms, want %d", doublings, got, doublings)
	}
	for _, tm := range b.terms {
		if tm.kind == KindAdd && len(tm.args) > MaxAddArgs {
			t.Fatalf("a sum has %d operands, over MaxAddArgs = %d", len(tm.args), MaxAddArgs)
		}
	}
	if got := Eval(n, Assignment{x: IntValue(3)}, 0); got.Int != 3<<doublings {
		t.Errorf("n = %d, want %d", got.Int, int64(3)<<doublings)
	}
}

func TestEval(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	y := b.Var("y", Int)
	p := b.Var("p", Bool)

	a := Assignment{x: IntValue(5), y: IntValue(-3), p: BoolValue(true)}

	e := b.Ite(p, b.Add(x, y), b.Mul(x, y))
	if got := Eval(e, a, 0); got.Int != 2 {
		t.Errorf("ite eval: got %d, want 2", got.Int)
	}
	a[p] = BoolValue(false)
	if got := Eval(e, a, 0); got.Int != -15 {
		t.Errorf("ite eval: got %d, want -15", got.Int)
	}

	c := b.And(b.Le(y, x), b.Not(b.Eq(x, y)))
	if got := Eval(c, a, 0); !got.Bool {
		t.Error("-3 <= 5 && 5 != -3 should be true")
	}
}

func TestEvalWrapSemantics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	a := Assignment{x: IntValue(2047)} // max for width 12
	inc := b.Add(x, b.IntConst(1))
	if got := Eval(inc, a, 12); got.Int != -2048 {
		t.Errorf("2047+1 at width 12: got %d, want -2048 (wrap)", got.Int)
	}
	if got := Eval(inc, a, 0); got.Int != 2048 {
		t.Errorf("2047+1 unbounded: got %d, want 2048", got.Int)
	}
}

func TestEvalUnassignedDefaults(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	p := b.Var("p", Bool)
	if got := Eval(b.Add(x, b.IntConst(3)), Assignment{}, 0); got.Int != 3 {
		t.Errorf("unassigned int should read 0; got %d", got.Int)
	}
	if got := Eval(p, Assignment{}, 0); got.Bool {
		t.Error("unassigned bool should read false")
	}
}

func TestMinMax(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	y := b.Var("y", Int)
	a := Assignment{x: IntValue(4), y: IntValue(9)}
	if got := Eval(b.Min(x, y), a, 0); got.Int != 4 {
		t.Errorf("min: got %d", got.Int)
	}
	if got := Eval(b.Max(x, y), a, 0); got.Int != 9 {
		t.Errorf("max: got %d", got.Int)
	}
}

func TestVarsOrderedByCreation(t *testing.T) {
	b := NewBuilder()
	names := []string{"c", "a", "b"}
	for _, n := range names {
		b.Var(n, Int)
	}
	vars := b.Vars()
	if len(vars) != 3 {
		t.Fatalf("got %d vars", len(vars))
	}
	for i, n := range names {
		if vars[i].Name() != n {
			t.Errorf("vars[%d] = %s, want %s", i, vars[i].Name(), n)
		}
	}
}

// Property: builder folding never changes the evaluated meaning of an
// expression built two ways.
func TestQuickAddCommutes(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	y := b.Var("y", Int)
	f := func(xv, yv int32) bool {
		a := Assignment{x: IntValue(int64(xv)), y: IntValue(int64(yv))}
		l := Eval(b.Add(x, y), a, 0)
		r := Eval(b.Add(y, x), a, 0)
		return l.Int == r.Int
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", Bool)
	q := b.Var("q", Bool)
	f := func(pv, qv bool) bool {
		a := Assignment{p: BoolValue(pv), q: BoolValue(qv)}
		l := Eval(b.Not(b.And(p, q)), a, 0)
		r := Eval(b.Or(b.Not(p), b.Not(q)), a, 0)
		return l.Bool == r.Bool
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	s := b.Le(b.Add(x, b.IntConst(1)), b.IntConst(10)).String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	if want := "(<= (+ x 1) 10)"; s != want {
		t.Errorf("got %q, want %q", s, want)
	}
}

// More algebraic laws checked by evaluation over random inputs.
func TestQuickAlgebraicLaws(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	y := b.Var("y", Int)
	z := b.Var("z", Int)
	p := b.Var("p", Bool)

	asg := func(xv, yv, zv int32, pv bool) Assignment {
		return Assignment{
			x: IntValue(int64(xv)), y: IntValue(int64(yv)),
			z: IntValue(int64(zv)), p: BoolValue(pv),
		}
	}
	laws := []struct {
		name string
		l, r *Term
	}{
		{"add assoc", b.Add(b.Add(x, y), z), b.Add(x, b.Add(y, z))},
		{"mul comm", b.Mul(x, y), b.Mul(y, x)},
		{"sub as add-neg", b.Sub(x, y), b.Add(x, b.Neg(y))},
		{"min/max sum", b.Add(b.Min(x, y), b.Max(x, y)), b.Add(x, y)},
		{"ite push", b.Add(b.Ite(p, x, y), z), b.Ite(p, b.Add(x, z), b.Add(y, z))},
	}
	for _, law := range laws {
		law := law
		f := func(xv, yv, zv int32, pv bool) bool {
			a := asg(xv%1000, yv%1000, zv%1000, pv)
			return Eval(law.l, a, 0).Int == Eval(law.r, a, 0).Int
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", law.name, err)
		}
	}

	boolLaws := []struct {
		name string
		l, r *Term
	}{
		{"implies as or", b.Implies(p, b.Lt(x, y)), b.Or(b.Not(p), b.Lt(x, y))},
		{"iff as two implies", b.Iff(p, b.Lt(x, y)),
			b.And(b.Implies(p, b.Lt(x, y)), b.Implies(b.Lt(x, y), p))},
		{"le antisym", b.And(b.Le(x, y), b.Le(y, x)), b.Eq(x, y)},
	}
	for _, law := range boolLaws {
		law := law
		f := func(xv, yv, zv int32, pv bool) bool {
			a := asg(xv%50, yv%50, zv%50, pv)
			return Eval(law.l, a, 0).Bool == Eval(law.r, a, 0).Bool
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", law.name, err)
		}
	}
}

// Wrap semantics are a ring homomorphism: evaluating wrapped matches
// wrapping the unbounded result, for +, -, *.
func TestQuickWrapHomomorphism(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", Int)
	y := b.Var("y", Int)
	const w = 8
	wrapRef := func(v int64) int64 {
		v &= 0xff
		if v >= 128 {
			v -= 256
		}
		return v
	}
	ops := map[string]*Term{
		"add": b.Add(x, y), "sub": b.Sub(x, y), "mul": b.Mul(x, y),
	}
	refs := map[string]func(a, c int64) int64{
		"add": func(a, c int64) int64 { return a + c },
		"sub": func(a, c int64) int64 { return a - c },
		"mul": func(a, c int64) int64 { return a * c },
	}
	for name, e := range ops {
		name, e := name, e
		f := func(xv, yv int16) bool {
			a := Assignment{x: IntValue(wrapRef(int64(xv))), y: IntValue(wrapRef(int64(yv)))}
			got := Eval(e, a, w).Int
			want := wrapRef(refs[name](a[x].Int, a[y].Int))
			return got == want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
