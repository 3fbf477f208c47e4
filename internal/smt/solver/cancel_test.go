package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"buffy/internal/smt/sat"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

// hardInstance asserts a term-level pigeonhole principle PHP(10,9):
// unsat, and exponentially hard for CDCL without symmetry breaking, so a
// fresh solve reliably outlives the test's cancellation window.
func hardInstance(s *Solver) {
	const pigeons, holes = 10, 9
	b := s.Builder()
	p := make([][]*term.Term, pigeons)
	for i := range p {
		p[i] = make([]*term.Term, holes)
		for h := range p[i] {
			p[i][h] = b.Var(fmt.Sprintf("p%d_%d", i, h), term.Bool)
		}
		s.Assert(b.Or(p[i]...)) // each pigeon sits somewhere
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				s.Assert(b.Not(b.And(p[i][h], p[j][h]))) // no sharing
			}
		}
	}
}

func TestCheckContextCancel(t *testing.T) {
	s := New(Options{Width: 12})
	hardInstance(s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- s.Check(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancelAt := time.Now()
	cancel()
	select {
	case got := <-done:
		// The instance is unsat; if the search finished before the cancel
		// landed, Unsat is the honest answer — both outcomes are legal,
		// what matters is that the call returned promptly.
		if got != Unknown && got != Unsat {
			t.Fatalf("got %v, want unknown or unsat", got)
		}
		if elapsed := time.Since(cancelAt); elapsed > 2*time.Second {
			t.Errorf("check took %v to honour cancellation", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Check ignored cancellation")
	}
}

func TestCheckContextDeadline(t *testing.T) {
	s := New(Options{Width: 12})
	hardInstance(s)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	got := s.Check(ctx)
	if got != Unknown && got != Unsat {
		t.Fatalf("got %v, want unknown or unsat", got)
	}
	if got == Unknown && ctx.Err() == nil {
		t.Error("check stopped on the deadline, but ctx reports no error yet")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline ignored: check ran %v", elapsed)
	}
}

// TestProgressRidesOnContext: a check publishes into the feed on its own
// ctx and nowhere else, so a solver re-checked under a plain ctx (a warm
// session's next query) adds nothing to an earlier query's feed.
func TestProgressRidesOnContext(t *testing.T) {
	const pigeons, holes = 7, 6
	s := New(Options{Width: 12})
	b := s.Builder()
	// PHP(7,6), each pigeon's "sits somewhere" clause guarded by an
	// assumption, so the check is unsat with conflicts and the solver
	// stays reusable.
	var on []*term.Term
	p := make([][]*term.Term, pigeons)
	for i := range p {
		a := b.Var(fmt.Sprintf("on%d", i), term.Bool)
		on = append(on, a)
		p[i] = make([]*term.Term, holes)
		for h := range p[i] {
			p[i][h] = b.Var(fmt.Sprintf("p%d_%d", i, h), term.Bool)
		}
		s.Assert(b.Implies(a, b.Or(p[i]...)))
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				s.Assert(b.Not(b.And(p[i][h], p[j][h])))
			}
		}
	}

	feed := &sat.Progress{}
	if got := s.Check(WithProgress(context.Background(), feed), on...); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	snap := feed.Snapshot()
	if snap.Solves != 1 || snap.Conflicts == 0 || snap.Conflicts != s.Effort().Conflicts {
		t.Fatalf("feed after its check = %+v, want 1 solve and the check's %d conflicts", snap, s.Effort().Conflicts)
	}
	if got := s.Check(context.Background(), on...); got != Unsat {
		t.Fatalf("re-check: got %v, want unsat", got)
	}
	if after := feed.Snapshot(); after != snap {
		t.Errorf("a check under a plain ctx changed the feed: %+v -> %+v", snap, after)
	}
}

// TestCheckAssumingContextBackground pins that Check decides assumptions
// under a context that never ends (nil Done channel, no deadline).
func TestCheckAssumingContextBackground(t *testing.T) {
	s := New(Options{Width: 12})
	b := s.Builder()
	x := b.Var("x", term.Int)
	s.Assert(b.Ge(x, b.IntConst(5)))
	if got := s.Check(context.Background(), b.Le(x, b.IntConst(10))); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if got := s.Check(context.Background(), b.Le(x, b.IntConst(4))); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

// TestAssertAllSpans: each non-empty batch opens one bitblast span whose
// counters are the solver's growth since the previous span, so the spans
// sum to the solver's size; a cancelled batch stops before its next term.
func TestAssertAllSpans(t *testing.T) {
	tr := telemetry.NewTrace("assertall")
	ctx := telemetry.WithTrace(context.Background(), tr)
	s := New(Options{})
	b := s.Builder()
	x, y := b.Var("x", term.Int), b.Var("y", term.Int)
	if err := s.AssertAll(ctx, []*term.Term{b.Lt(x, y)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AssertAll(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AssertAll(ctx, []*term.Term{b.Lt(y, b.IntConst(5)), b.Lt(b.IntConst(0), x)}); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Snapshot().Spans); n != 2 {
		t.Errorf("%d spans for two non-empty batches, want 2", n)
	}
	work := tr.Work()
	if got, want := work["bitblast.clauses"], int64(s.NumClauses()); got != want {
		t.Errorf("spans sum to %d clauses, solver has %d", got, want)
	}
	if got, want := work["bitblast.vars"], int64(s.NumVars()); got != want {
		t.Errorf("spans sum to %d vars, solver has %d", got, want)
	}
	if got, want := work["bitblast.terms"], int64(s.NumBlastedTerms()); got != want {
		t.Errorf("spans sum to %d terms, solver blasted %d", got, want)
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := len(s.Assertions())
	if err := s.AssertAll(cctx, []*term.Term{b.Lt(x, b.IntConst(3))}); err != context.Canceled {
		t.Errorf("cancelled batch: err %v, want context.Canceled", err)
	}
	if len(s.Assertions()) != before {
		t.Error("cancelled batch asserted a term")
	}
}

// TestCheckAssumingSpans: a check that blasts new assumption terms counts
// their growth on a bitblast span of its own, so the spans still sum to
// the solver's size; a check whose assumptions are blasted already, or
// that has none, opens none.
func TestCheckAssumingSpans(t *testing.T) {
	tr := telemetry.NewTrace("assuming")
	ctx := telemetry.WithTrace(context.Background(), tr)
	s := New(Options{})
	b := s.Builder()
	x, y := b.Var("x", term.Int), b.Var("y", term.Int)
	if err := s.AssertAll(ctx, []*term.Term{b.Lt(x, y)}); err != nil {
		t.Fatal(err)
	}
	bitblastSpans := func() int {
		n := 0
		for _, sp := range tr.Snapshot().Spans {
			if sp.Name == "bitblast" {
				n++
			}
		}
		return n
	}
	checks := []struct {
		assumptions []*term.Term
		want        Result
		spans       int
	}{
		{[]*term.Term{b.Lt(y, b.IntConst(5)), b.Lt(b.IntConst(2), x)}, Sat, 2},
		{[]*term.Term{b.Lt(y, b.IntConst(5))}, Sat, 2},
		{nil, Sat, 2},
		{[]*term.Term{b.Lt(y, b.IntConst(3)), b.Lt(b.IntConst(2), x)}, Unsat, 3},
	}
	for i, c := range checks {
		if got := s.Check(ctx, c.assumptions...); got != c.want {
			t.Fatalf("check %d: %v, want %v", i, got, c.want)
		}
		if n := bitblastSpans(); n != c.spans {
			t.Errorf("after check %d: %d bitblast spans, want %d", i, n, c.spans)
		}
	}
	work := tr.Work()
	if got, want := work["bitblast.clauses"], int64(s.NumClauses()); got != want {
		t.Errorf("spans sum to %d clauses, solver has %d", got, want)
	}
	if got, want := work["bitblast.vars"], int64(s.NumVars()); got != want {
		t.Errorf("spans sum to %d vars, solver has %d", got, want)
	}
	if got, want := work["bitblast.terms"], int64(s.NumBlastedTerms()); got != want {
		t.Errorf("spans sum to %d terms, solver blasted %d", got, want)
	}
}

// TestSearchSpanNamesMatchEffort pins one set of names for search effort:
// every counter on a check's search span equals the field of the same
// name in the JSON of the check's Effort, the record results, the live
// feed and the search report carry.
func TestSearchSpanNamesMatchEffort(t *testing.T) {
	const pigeons, holes = 6, 5
	tr := telemetry.NewTrace("names")
	ctx := telemetry.WithTrace(context.Background(), tr)
	s := New(Options{Width: 12})
	b := s.Builder()
	p := make([][]*term.Term, pigeons)
	for i := range p {
		p[i] = make([]*term.Term, holes)
		for h := range p[i] {
			p[i][h] = b.Var(fmt.Sprintf("p%d_%d", i, h), term.Bool)
		}
		s.Assert(b.Or(p[i]...))
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				s.Assert(b.Not(b.And(p[i][h], p[j][h])))
			}
		}
	}
	if got := s.Check(ctx); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	raw, err := json.Marshal(s.Effort())
	if err != nil {
		t.Fatal(err)
	}
	var effort map[string]int64
	if err := json.Unmarshal(raw, &effort); err != nil {
		t.Fatal(err)
	}
	counted := 0
	for key, v := range tr.Work() {
		name, ok := strings.CutPrefix(key, "search.")
		if !ok {
			continue
		}
		counted++
		if got, ok := effort[name]; !ok || got != v {
			t.Errorf("search span %s = %d, Effort JSON %q = %d (present %v)", name, v, name, got, ok)
		}
	}
	if counted == 0 || effort["conflicts"] == 0 {
		t.Fatalf("search span counters %v, effort %s: want a search with conflicts", tr.Work(), raw)
	}
}
