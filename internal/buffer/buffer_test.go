package buffer

import (
	"context"
	"testing"

	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// testCtx returns a Ctx whose assumptions are asserted into the solver.
func testCtx(s *solver.Solver) *Ctx {
	return &Ctx{B: s.Builder(), Assume: s.Assert, Prefix: "test"}
}

// constVal extracts the constant value of a term that should have folded.
func constVal(t *testing.T, tm *term.Term) int64 {
	t.Helper()
	if tm.Kind() != term.KindIntConst {
		t.Fatalf("term %s did not fold to a constant", tm)
	}
	return tm.IntVal()
}

func pkt(b *term.Builder, flow int64, bytes int64) Packet {
	return Packet{Fields: []*term.Term{b.IntConst(flow)}, Bytes: b.IntConst(bytes)}
}

func models() []Model {
	return []Model{ListModel{}, CountModel{}, MultiClassModel{}}
}

func TestEmptyBacklogs(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		st := m.Empty(c, Config{})
		if v := constVal(t, st.BacklogP(c)); v != 0 {
			t.Errorf("%s: empty backlog-p = %d", m.Name(), v)
		}
		if v := constVal(t, st.BacklogB(c)); v != 0 {
			t.Errorf("%s: empty backlog-b = %d", m.Name(), v)
		}
		if v := constVal(t, st.Dropped()); v != 0 {
			t.Errorf("%s: empty dropped = %d", m.Name(), v)
		}
	}
}

func TestArriveAndBacklog(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		st := m.Empty(c, Config{Cap: 4})
		st.Arrive(c, pkt(b, 1, 1), b.True())
		st.Arrive(c, pkt(b, 2, 1), b.True())
		st.Arrive(c, pkt(b, 1, 1), b.False()) // guard false: no arrival
		if v := constVal(t, st.BacklogP(c)); v != 2 {
			t.Errorf("%s: backlog-p = %d, want 2", m.Name(), v)
		}
	}
}

func TestCapacityDrop(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		st := m.Empty(c, Config{Cap: 2})
		for i := 0; i < 4; i++ {
			st.Arrive(c, pkt(b, int64(i%2), 1), b.True())
		}
		if v := constVal(t, st.BacklogP(c)); v != 2 {
			t.Errorf("%s: backlog = %d, want 2 (cap)", m.Name(), v)
		}
		if v := constVal(t, st.Dropped()); v != 2 {
			t.Errorf("%s: dropped = %d, want 2", m.Name(), v)
		}
	}
}

func TestMovePreservesPackets(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		src := m.Empty(c, Config{Cap: 4})
		dst := m.Empty(c, Config{Cap: 4})
		for i := 0; i < 3; i++ {
			src.Arrive(c, pkt(b, int64(i), 1), b.True())
		}
		if err := src.MoveP(c, dst, b.IntConst(2), nil, b.True()); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		// The multiclass unfiltered move is nondeterministic, so check
		// totals through the solver rather than constant folding.
		total := b.Add(src.BacklogP(c), dst.BacklogP(c))
		s.Assert(b.Neq(total, b.IntConst(3)))
		if got := s.Check(context.Background()); got != solver.Unsat {
			t.Errorf("%s: packet conservation violated (src+dst != 3 is %v)", m.Name(), got)
		}
	}
}

func TestMoveMoreThanBacklog(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		src := m.Empty(c, Config{Cap: 4})
		dst := m.Empty(c, Config{Cap: 8})
		src.Arrive(c, pkt(b, 0, 1), b.True())
		if err := src.MoveP(c, dst, b.IntConst(5), nil, b.True()); err != nil {
			t.Fatal(err)
		}
		s.Assert(b.Or(
			b.Neq(src.BacklogP(c), b.IntConst(0)),
			b.Neq(dst.BacklogP(c), b.IntConst(1))))
		if got := s.Check(context.Background()); got != solver.Unsat {
			t.Errorf("%s: move clamp failed (%v)", m.Name(), got)
		}
	}
}

func TestMoveGuardFalse(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		src := m.Empty(c, Config{Cap: 4})
		dst := m.Empty(c, Config{Cap: 4})
		src.Arrive(c, pkt(b, 0, 1), b.True())
		if err := src.MoveP(c, dst, b.IntConst(1), nil, b.False()); err != nil {
			t.Fatal(err)
		}
		s.Assert(b.Or(
			b.Neq(src.BacklogP(c), b.IntConst(1)),
			b.Neq(dst.BacklogP(c), b.IntConst(0))))
		if got := s.Check(context.Background()); got != solver.Unsat {
			t.Errorf("%s: guarded move leaked (%v)", m.Name(), got)
		}
	}
}

func TestListFIFOOrder(t *testing.T) {
	s := solver.New(solver.Options{})
	c := testCtx(s)
	b := s.Builder()
	src := ListModel{}.Empty(c, Config{Cap: 4})
	dst := ListModel{}.Empty(c, Config{Cap: 4})
	// Arrive flows 5, 6, 7; move 2; dst should hold [5, 6], src [7].
	for _, fl := range []int64{5, 6, 7} {
		src.Arrive(c, pkt(b, fl, 1), b.True())
	}
	if err := src.MoveP(c, dst, b.IntConst(2), nil, b.True()); err != nil {
		t.Fatal(err)
	}
	d := dst.(*listState)
	sl := src.(*listState)
	if v := constVal(t, d.fields[0][0]); v != 5 {
		t.Errorf("dst[0] flow = %d, want 5", v)
	}
	if v := constVal(t, d.fields[1][0]); v != 6 {
		t.Errorf("dst[1] flow = %d, want 6", v)
	}
	if v := constVal(t, sl.fields[0][0]); v != 7 {
		t.Errorf("src[0] flow = %d, want 7 (compacted)", v)
	}
	if v := constVal(t, src.BacklogP(c)); v != 1 {
		t.Errorf("src backlog = %d, want 1", v)
	}
}

func TestFilteredBacklog(t *testing.T) {
	for _, m := range []Model{ListModel{}, MultiClassModel{}} {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		st := m.Empty(c, Config{Cap: 6, NumFields: 2, NumClasses: 4})
		for i, fl := range []int64{1, 2, 1, 1, 3} {
			st.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(fl), b.IntConst(int64(i % 2))}, Bytes: b.IntConst(1)}, b.True())
		}
		f := Filter{Field: 0, Value: b.IntConst(1)}
		n, err := st.FilterBacklog(c, []Filter{f}, false)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if v := constVal(t, n); v != 3 {
			t.Errorf("%s: filtered backlog = %d, want 3", m.Name(), v)
		}
		// flow == 1 |> second field == 0: packets 0 and 2. Only the list
		// model keeps the second field.
		n, err = st.FilterBacklog(c, []Filter{f, {Field: 1, Value: b.IntConst(0)}}, false)
		switch {
		case m.Name() == "list" && err != nil:
			t.Fatalf("list: chained filter: %v", err)
		case m.Name() == "list" && constVal(t, n) != 2:
			t.Errorf("list: chained filtered backlog = %s, want 2", n)
		case m.Name() != "list" && err == nil:
			t.Errorf("%s: chained filter: want an error", m.Name())
		}
	}
}

func TestFilteredMove(t *testing.T) {
	for _, m := range []Model{ListModel{}, MultiClassModel{}} {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		src := m.Empty(c, Config{Cap: 6, NumClasses: 4})
		dst := m.Empty(c, Config{Cap: 6, NumClasses: 4})
		for _, fl := range []int64{1, 2, 1, 3} {
			src.Arrive(c, pkt(b, fl, 1), b.True())
		}
		f := &Filter{Field: 0, Value: b.IntConst(1)}
		if err := src.MoveP(c, dst, b.IntConst(5), f, b.True()); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		dstFiltered, _ := dst.FilterBacklog(c, []Filter{*f}, false)
		srcFiltered, _ := src.FilterBacklog(c, []Filter{*f}, false)
		s.Assert(b.Or(
			b.Neq(dstFiltered, b.IntConst(2)),
			b.Neq(srcFiltered, b.IntConst(0)),
			b.Neq(src.BacklogP(c), b.IntConst(2))))
		if got := s.Check(context.Background()); got != solver.Unsat {
			t.Errorf("%s: filtered move wrong (%v)", m.Name(), got)
		}
	}
}

func TestCountModelRejectsFilters(t *testing.T) {
	s := solver.New(solver.Options{})
	c := testCtx(s)
	b := s.Builder()
	st := CountModel{}.Empty(c, Config{})
	f := &Filter{Field: 0, Value: b.IntConst(1)}
	for _, fs := range [][]Filter{{*f}, {*f, {Field: 1, Value: b.IntConst(0)}}} {
		for _, bytes := range []bool{false, true} {
			if _, err := st.FilterBacklog(c, fs, bytes); err == nil {
				t.Errorf("count model should reject %d filters (bytes %v)", len(fs), bytes)
			}
		}
	}
	dst := CountModel{}.Empty(c, Config{})
	if err := st.MoveP(c, dst, b.IntConst(1), f, b.True()); err == nil {
		t.Error("count model should reject filtered moves")
	}
}

// A list buffer keeps untracked fields and sizes at 0 through arrivals
// and moves, and refuses to read them rather than read 0.
func TestUntrackedSlotState(t *testing.T) {
	s := solver.New(solver.Options{})
	c := testCtx(s)
	b := s.Builder()
	cfg := Config{Cap: 4, NumFields: 2, Live: &Live{Fields: []bool{false, true}}}
	src, dst := ListModel{}.Empty(c, cfg), ListModel{}.Empty(c, cfg)
	src.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(3), b.IntConst(1)}, Bytes: b.IntConst(2)}, b.True())
	if err := src.MoveP(c, dst, b.IntConst(1), nil, b.True()); err != nil {
		t.Fatal(err)
	}
	if v := constVal(t, dst.BacklogP(c)); v != 1 {
		t.Fatalf("moved backlog-p = %d, want 1", v)
	}
	tracked := []Filter{{Field: 1, Value: b.IntConst(1)}}
	got, err := dst.FilterBacklog(c, tracked, false)
	if err != nil || constVal(t, got) != 1 {
		t.Fatalf("tracked field filter = %v, %v; want 1", got, err)
	}
	for _, st := range []*listState{src.(*listState), dst.(*listState)} {
		for i := range st.valid {
			if st.fields[i][0] != b.IntConst(0) || st.bytes[i] != b.IntConst(0) {
				t.Errorf("slot %d: untracked field %s, size %s; want the constant 0", i, st.fields[i][0], st.bytes[i])
			}
		}
	}
	if _, err := dst.FilterBacklog(c, []Filter{{Field: 0, Value: b.IntConst(3)}}, false); err == nil {
		t.Error("filter on an untracked field: want an error")
	}
	if _, err := dst.FilterBacklog(c, tracked, true); err == nil {
		t.Error("byte view without sizes: want an error")
	}
	if err := dst.MoveB(c, src, b.IntConst(2), nil, b.True()); err == nil {
		t.Error("move-b without sizes: want an error")
	}
	u := cfg.Live.Union(&Live{Fields: []bool{true}, Bytes: true})
	if !u.Bytes || !u.Fields[0] || !u.Fields[1] || cfg.Live.Union(nil) != nil {
		t.Errorf("Union = %+v; a union with nil must track everything", u)
	}
}

func TestMoveBytes(t *testing.T) {
	s := solver.New(solver.Options{})
	c := testCtx(s)
	b := s.Builder()
	src := ListModel{}.Empty(c, Config{Cap: 4, MaxBytes: 10})
	dst := ListModel{}.Empty(c, Config{Cap: 4, MaxBytes: 10})
	// Packets of sizes 3, 4, 2: move-b 7 should take exactly the first two.
	src.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}, Bytes: b.IntConst(3)}, b.True())
	src.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}, Bytes: b.IntConst(4)}, b.True())
	src.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}, Bytes: b.IntConst(2)}, b.True())
	if err := src.MoveB(c, dst, b.IntConst(7), nil, b.True()); err != nil {
		t.Fatal(err)
	}
	if v := constVal(t, dst.BacklogB(c)); v != 7 {
		t.Errorf("dst bytes = %d, want 7", v)
	}
	if v := constVal(t, dst.BacklogP(c)); v != 2 {
		t.Errorf("dst packets = %d, want 2", v)
	}
	if v := constVal(t, src.BacklogB(c)); v != 2 {
		t.Errorf("src bytes = %d, want 2", v)
	}
}

func TestMoveBytesPrefixBlocked(t *testing.T) {
	// First packet is larger than the budget: nothing moves even though a
	// later packet would fit (prefix semantics — FIFO head blocks).
	s := solver.New(solver.Options{})
	c := testCtx(s)
	b := s.Builder()
	src := ListModel{}.Empty(c, Config{Cap: 4, MaxBytes: 10})
	dst := ListModel{}.Empty(c, Config{Cap: 4, MaxBytes: 10})
	src.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}, Bytes: b.IntConst(5)}, b.True())
	src.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}, Bytes: b.IntConst(1)}, b.True())
	if err := src.MoveB(c, dst, b.IntConst(3), nil, b.True()); err != nil {
		t.Fatal(err)
	}
	if v := constVal(t, dst.BacklogP(c)); v != 0 {
		t.Errorf("dst packets = %d, want 0 (head blocks)", v)
	}
}

func TestFlushInto(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		src := m.Empty(c, Config{Cap: 4})
		dst := m.Empty(c, Config{Cap: 8})
		for i := 0; i < 3; i++ {
			src.Arrive(c, pkt(b, int64(i), 1), b.True())
		}
		if err := src.FlushInto(c, dst); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		s.Assert(b.Or(
			b.Neq(src.BacklogP(c), b.IntConst(0)),
			b.Neq(dst.BacklogP(c), b.IntConst(3))))
		if got := s.Check(context.Background()); got != solver.Unsat {
			t.Errorf("%s: flush wrong (%v)", m.Name(), got)
		}
	}
}

func TestSymbolicArrivalMove(t *testing.T) {
	// A symbolic packet arrives; the solver must be able to pick its flow
	// field so a filtered move succeeds.
	s := solver.New(solver.Options{})
	c := testCtx(s)
	b := s.Builder()
	src := ListModel{}.Empty(c, Config{Cap: 4})
	dst := ListModel{}.Empty(c, Config{Cap: 4})
	flow := b.Var("in_flow", term.Int)
	s.Assert(b.Le(b.IntConst(0), flow))
	s.Assert(b.Lt(flow, b.IntConst(4)))
	src.Arrive(c, Packet{Fields: []*term.Term{flow}, Bytes: b.IntConst(1)}, b.True())
	f := &Filter{Field: 0, Value: b.IntConst(2)}
	if err := src.MoveP(c, dst, b.IntConst(1), f, b.True()); err != nil {
		t.Fatal(err)
	}
	s.Assert(b.Eq(dst.BacklogP(c), b.IntConst(1)))
	if got := s.Check(context.Background()); got != solver.Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if v := s.IntValue(flow); v != 2 {
		t.Errorf("flow = %d, want 2 (only value allowing the filtered move)", v)
	}
}

func TestSelfMoveRejected(t *testing.T) {
	for _, m := range models() {
		s := solver.New(solver.Options{})
		c := testCtx(s)
		b := s.Builder()
		st := m.Empty(c, Config{Cap: 4})
		if err := st.MoveP(c, st, b.IntConst(1), nil, b.True()); err == nil {
			t.Errorf("%s: self-move should be rejected", m.Name())
		}
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"list", "count", "multiclass"} {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Errorf("ModelByName(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := ModelByName("nosuch"); err == nil {
		t.Error("expected error for unknown model")
	}
	if m, _ := ModelByName(""); m.Name() != "list" {
		t.Error("empty name should default to list")
	}
}
