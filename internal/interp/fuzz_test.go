package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
)

// progGen generates random well-typed Buffy programs over a fixed state
// shape: two input buffers (ibs[2]), one output (ob), an int global, a
// bool global, a list, int/bool locals and an int monitor. Every generated
// program is compiled symbolically AND interpreted concretely under the
// same pinned traffic; the two semantics must agree on every observable.
type progGen struct {
	rng   *rand.Rand
	depth int
	loops []string
	buf   strings.Builder
	ind   int
}

func (g *progGen) line(format string, args ...interface{}) {
	g.buf.WriteString(strings.Repeat("  ", g.ind))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

func (g *progGen) intExpr(d int) string {
	if d <= 0 {
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(7)-3)
		case 1:
			return "gi"
		case 2:
			return "x"
		case 3:
			if len(g.loops) > 0 {
				return g.loops[g.rng.Intn(len(g.loops))]
			}
			return "t"
		case 4:
			return fmt.Sprintf("backlog-p(ibs[%d])", g.rng.Intn(2))
		default:
			return "l.size()"
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 2:
		return fmt.Sprintf("(%s * %d)", g.intExpr(d-1), g.rng.Intn(3))
	case 3:
		return fmt.Sprintf("(-%s)", g.intExpr(d-1))
	default:
		return g.intExpr(0)
	}
}

func (g *progGen) boolExpr(d int) string {
	if d <= 0 {
		switch g.rng.Intn(5) {
		case 0:
			return "gb"
		case 1:
			return "bl"
		case 2:
			return "l.empty()"
		case 3:
			return fmt.Sprintf("l.has(%d)", g.rng.Intn(4))
		default:
			return "true"
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s < %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 1:
		return fmt.Sprintf("(%s == %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 2:
		return fmt.Sprintf("(%s >= %s)", g.intExpr(d-1), g.intExpr(d-1))
	case 3:
		return fmt.Sprintf("(%s & %s)", g.boolExpr(d-1), g.boolExpr(d-1))
	case 4:
		return fmt.Sprintf("(%s | %s)", g.boolExpr(d-1), g.boolExpr(d-1))
	default:
		return fmt.Sprintf("(!%s)", g.boolExpr(d-1))
	}
}

func (g *progGen) stmt(d int) {
	switch g.rng.Intn(10) {
	case 0, 1:
		g.line("x = %s;", g.intExpr(2))
	case 2:
		g.line("gi = %s;", g.intExpr(2))
	case 3:
		g.line("bl = %s;", g.boolExpr(1))
	case 4:
		g.line("gb = %s;", g.boolExpr(1))
	case 5:
		g.line("l.push_back(%s);", g.intExpr(1))
	case 6:
		g.line("x = l.pop_front();")
	case 7:
		if d > 0 {
			g.line("if (%s) {", g.boolExpr(1))
			g.ind++
			g.block(d-1, 1+g.rng.Intn(2))
			g.ind--
			if g.rng.Intn(2) == 0 {
				g.line("} else {")
				g.ind++
				g.block(d-1, 1)
				g.ind--
			}
			g.line("}")
		} else {
			g.line("mon = mon + 1;")
		}
	case 8:
		if d > 0 && len(g.loops) < 2 {
			v := fmt.Sprintf("i%d", len(g.loops))
			g.line("for (%s in 0..%d) {", v, 1+g.rng.Intn(3))
			g.loops = append(g.loops, v)
			g.ind++
			g.block(d-1, 1+g.rng.Intn(2))
			g.ind--
			g.loops = g.loops[:len(g.loops)-1]
			g.line("}")
		} else {
			g.line("mon = mon + %s;", g.intExpr(1))
		}
	default:
		src := g.rng.Intn(2)
		g.line("move-p(ibs[%d], ob, %s);", src, g.intExpr(1))
	}
}

func (g *progGen) block(d, n int) {
	for i := 0; i < n; i++ {
		g.stmt(d)
	}
}

func (g *progGen) generate() string {
	g.buf.Reset()
	g.line("fuzz(buffer[2] ibs, buffer ob) {")
	g.ind++
	g.line("global int gi; global bool gb; global list l;")
	g.line("local int x; local bool bl;")
	g.line("monitor int mon;")
	g.block(3, 4+g.rng.Intn(4))
	g.line("mon = mon + backlog-p(ob);")
	g.ind--
	g.line("}")
	return g.buf.String()
}

// TestRandomProgramsSolverVsInterpreter is the repository's deepest
// soundness net: 60 random programs, each executed both ways under pinned
// random traffic, comparing every global, the monitor, and every buffer's
// backlog and drop count after every run.
func TestRandomProgramsSolverVsInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	g := &progGen{rng: rng}
	const T = 3
	programs := 60
	if testing.Short() {
		programs = 10
	}
	for iter := 0; iter < programs; iter++ {
		src := g.generate()
		info, err := qm.Load(src)
		if err != nil {
			t.Fatalf("iter %d: generated program does not check: %v\n%s", iter, err, src)
		}
		sv := solver.New(solver.Options{})
		comp, err := ir.Compile(info, sv.Builder(), ir.Options{T: T, Bounds: typecheck.Bounds{ArrivalsPerStep: 2, NumClasses: 2}})
		if err != nil {
			t.Fatalf("iter %d: compile: %v\n%s", iter, err, src)
		}
		for _, a := range comp.Assumes {
			sv.Assert(a)
		}
		b := sv.Builder()

		// Pin a random traffic plan.
		type key struct {
			step int
			buf  string
		}
		slots := map[key][]ir.Arrival{}
		for _, a := range comp.Arrivals {
			k := key{a.Step, a.Buffer}
			slots[k] = append(slots[k], a)
		}
		for _, sl := range slots {
			n := rng.Intn(len(sl) + 1)
			for i, a := range sl {
				if i < n {
					sv.Assert(a.Valid)
					sv.Assert(b.Eq(a.Fields[0], b.IntConst(int64(rng.Intn(2)))))
				} else {
					sv.Assert(b.Not(a.Valid))
				}
			}
		}
		if got := sv.Check(); got != solver.Sat {
			t.Fatalf("iter %d: pinned program infeasible: %v\n%s", iter, got, src)
		}
		// Replay the pinned traffic step by step through the interpreter.
		im2, err := New(info, Options{T: T, Bounds: typecheck.Bounds{ArrivalsPerStep: 2}})
		if err != nil {
			t.Fatal(err)
		}
		tr := smtbe.ExtractTrace(comp, sv)
		for step := 0; step < T; step++ {
			for _, ev := range tr.Packets {
				if ev.Step != step {
					continue
				}
				im2.Buffer(ev.Buffer).Arrive(Packet{Fields: append([]int64(nil), ev.Fields...), Bytes: ev.Bytes})
			}
			if err := im2.Step(step); err != nil {
				t.Fatalf("iter %d: interp: %v\n%s", iter, err, src)
			}
		}
		if diffs := Diff(im2, tr); len(diffs) > 0 {
			t.Fatalf("iter %d: solver and interpreter disagree:\n%s\nprogram:\n%s",
				iter, strings.Join(diffs, "\n"), src)
		}
	}
}
