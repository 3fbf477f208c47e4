package buffer

import (
	"fmt"

	"buffy/internal/smt/term"
)

// ListModel models a buffer as a bounded, ordered list of packets — the
// FPerf precision level. Packet identity, order, per-packet fields and
// per-packet byte sizes are all tracked exactly.
type ListModel struct{}

// Name implements Model.
func (ListModel) Name() string { return "list" }

// listState stores packets in packed slots: all valid slots precede all
// invalid ones, and packets leave from the front (slot 0) in FIFO order.
type listState struct {
	cfg     Config
	valid   []*term.Term   // bool per slot
	fields  [][]*term.Term // [slot][field] int
	bytes   []*term.Term   // int per slot
	dropped *term.Term
}

// Empty implements Model.
func (ListModel) Empty(c *Ctx, cfg Config) State {
	cfg = cfg.Normalize()
	s := &listState{cfg: cfg, dropped: c.B.IntConst(0)}
	zero := c.B.IntConst(0)
	for i := 0; i < cfg.Cap; i++ {
		s.valid = append(s.valid, c.B.False())
		fs := make([]*term.Term, cfg.NumFields)
		for f := range fs {
			fs[f] = zero
		}
		s.fields = append(s.fields, fs)
		s.bytes = append(s.bytes, zero)
	}
	return s
}

// Symbolic implements Model: fresh per-slot variables under the packed
// invariant (valid slots form a prefix), unit-or-larger byte sizes on
// valid slots, field values within the class bound, and a non-negative
// drop counter.
func (ListModel) Symbolic(c *Ctx, cfg Config, prefix string) State {
	cfg = cfg.Normalize()
	b := c.B
	s := &listState{cfg: cfg}
	for i := 0; i < cfg.Cap; i++ {
		v := b.Var(fmt.Sprintf("%s.slot%d.valid", prefix, i), term.Bool)
		s.valid = append(s.valid, v)
		if i > 0 {
			c.Assume(b.Implies(v, s.valid[i-1]))
		}
		fs := make([]*term.Term, cfg.NumFields)
		for f := range fs {
			fv := b.Var(fmt.Sprintf("%s.slot%d.f%d", prefix, i, f), term.Int)
			c.Assume(b.Le(b.IntConst(0), fv))
			c.Assume(b.Lt(fv, b.IntConst(int64(cfg.NumClasses))))
			fs[f] = fv
		}
		s.fields = append(s.fields, fs)
		by := b.Var(fmt.Sprintf("%s.slot%d.bytes", prefix, i), term.Int)
		c.Assume(b.Implies(v, b.Le(b.IntConst(1), by)))
		c.Assume(b.Implies(b.Not(v), b.Eq(by, b.IntConst(0))))
		c.Assume(b.Le(by, b.IntConst(int64(cfg.MaxBytes))))
		s.bytes = append(s.bytes, by)
	}
	d := b.Var(prefix+".dropped", term.Int)
	c.Assume(b.Le(b.IntConst(0), d))
	s.dropped = d
	return s
}

// Ite implements Model.
func (ListModel) Ite(c *Ctx, cond *term.Term, then, els State) State {
	a, b2 := then.(*listState), els.(*listState)
	if a.cfg.Cap != b2.cfg.Cap || a.cfg.NumFields != b2.cfg.NumFields {
		panic("buffer: Ite on differently-shaped list states")
	}
	out := &listState{cfg: a.cfg, dropped: c.B.Ite(cond, a.dropped, b2.dropped)}
	for i := 0; i < a.cfg.Cap; i++ {
		out.valid = append(out.valid, c.B.Ite(cond, a.valid[i], b2.valid[i]))
		fs := make([]*term.Term, a.cfg.NumFields)
		for f := range fs {
			fs[f] = c.B.Ite(cond, a.fields[i][f], b2.fields[i][f])
		}
		out.fields = append(out.fields, fs)
		out.bytes = append(out.bytes, c.B.Ite(cond, a.bytes[i], b2.bytes[i]))
	}
	return out
}

func (s *listState) Model() Model   { return ListModel{} }
func (s *listState) Config() Config { return s.cfg }

func (s *listState) Clone() State {
	out := &listState{cfg: s.cfg, dropped: s.dropped}
	out.valid = append([]*term.Term(nil), s.valid...)
	out.bytes = append([]*term.Term(nil), s.bytes...)
	for _, fs := range s.fields {
		out.fields = append(out.fields, append([]*term.Term(nil), fs...))
	}
	return out
}

func (s *listState) Dropped() *term.Term { return s.dropped }

func boolToInt(b *term.Builder, t *term.Term) *term.Term {
	return b.Ite(t, b.IntConst(1), b.IntConst(0))
}

func (s *listState) count(c *Ctx) *term.Term {
	terms := make([]*term.Term, len(s.valid))
	for i, v := range s.valid {
		terms[i] = boolToInt(c.B, v)
	}
	return c.B.Add(terms...)
}

// BacklogP implements State.
func (s *listState) BacklogP(c *Ctx) *term.Term { return s.count(c) }

// BacklogB implements State.
func (s *listState) BacklogB(c *Ctx) *term.Term {
	terms := make([]*term.Term, len(s.valid))
	for i, v := range s.valid {
		terms[i] = c.B.Ite(v, s.bytes[i], c.B.IntConst(0))
	}
	return c.B.Add(terms...)
}

func (s *listState) matchMask(c *Ctx, f *Filter) []*term.Term {
	mask := make([]*term.Term, len(s.valid))
	for i := range s.valid {
		m := s.valid[i]
		if f != nil {
			m = c.B.And(m, c.B.Eq(s.fields[i][f.Field], f.Value))
		}
		mask[i] = m
	}
	return mask
}

// FilterBacklogP implements State.
func (s *listState) FilterBacklogP(c *Ctx, f Filter) (*term.Term, error) {
	if f.Field < 0 || f.Field >= s.cfg.NumFields {
		return nil, fmt.Errorf("buffer: field index %d out of range", f.Field)
	}
	mask := s.matchMask(c, &f)
	terms := make([]*term.Term, len(mask))
	for i, m := range mask {
		terms[i] = boolToInt(c.B, m)
	}
	return c.B.Add(terms...), nil
}

// FilterBacklogB implements State.
func (s *listState) FilterBacklogB(c *Ctx, f Filter) (*term.Term, error) {
	if f.Field < 0 || f.Field >= s.cfg.NumFields {
		return nil, fmt.Errorf("buffer: field index %d out of range", f.Field)
	}
	mask := s.matchMask(c, &f)
	terms := make([]*term.Term, len(mask))
	for i, m := range mask {
		terms[i] = c.B.Ite(m, s.bytes[i], c.B.IntConst(0))
	}
	return c.B.Add(terms...), nil
}

// lazy is a table of terms filled on first use. Filling it in the order
// the terms would otherwise first be built keeps every term id, and so the
// emitted CNF, the same as rebuilding each term per use and letting the
// builder intern it.
type lazy []*term.Term

func (l lazy) get(i int, build func() *term.Term) *term.Term {
	if l[i] == nil {
		l[i] = build()
	}
	return l[i]
}

func lazyTable(rows, cols int) []lazy {
	t := make([]lazy, rows)
	for r := range t {
		t[r] = make(lazy, cols)
	}
	return t
}

// move is the shared implementation of MoveP/MoveB: want[i] marks the
// packets that leave the receiver and are appended, in order, to dst.
// Each selector below depends on fewer indices than the loops that use
// it, so it sits in a lazy table instead of being rebuilt per use.
func (s *listState) move(c *Ctx, dst State, want []*term.Term) error {
	d, ok := dst.(*listState)
	if !ok {
		return fmt.Errorf("buffer: cannot move between %s and %s states", s.Model().Name(), dst.Model().Name())
	}
	if d == s {
		return fmt.Errorf("buffer: move source and destination are the same buffer")
	}
	b := c.B
	zero := b.IntConst(0)

	// Moved packets, compacted in order: moved slot k holds the k-th
	// wanted packet.
	movedCount := zero
	wantRank := make([]*term.Term, len(want)) // # wanted before i
	for i, w := range want {
		wantRank[i] = movedCount
		movedCount = b.Add(movedCount, boolToInt(b, w))
	}

	// Compact the receiver: keep = valid && !want.
	keep := make([]*term.Term, len(s.valid))
	keepRank := make([]*term.Term, len(s.valid))
	keepCount := zero
	for i := range s.valid {
		keep[i] = b.And(s.valid[i], b.Not(want[i]))
		keepRank[i] = keepCount
		keepCount = b.Add(keepCount, boolToInt(b, keep[i]))
	}
	newValid := make([]*term.Term, s.cfg.Cap)
	newFields := make([][]*term.Term, s.cfg.Cap)
	newBytes := make([]*term.Term, s.cfg.Cap)
	for j := 0; j < s.cfg.Cap; j++ {
		jT := b.IntConst(int64(j))
		newValid[j] = b.Lt(jT, keepCount)
		keepHit := make(lazy, len(keep)) // packet i lands in slot j
		selKeep := func(proj func(i int) *term.Term) *term.Term {
			out := zero
			for i := len(keep) - 1; i >= 0; i-- {
				hit := keepHit.get(i, func() *term.Term { return b.And(keep[i], b.Eq(keepRank[i], jT)) })
				out = b.Ite(hit, proj(i), out)
			}
			return out
		}
		fs := make([]*term.Term, s.cfg.NumFields)
		for f := range fs {
			fs[f] = selKeep(func(i int) *term.Term { return s.fields[i][f] })
		}
		newFields[j] = fs
		newBytes[j] = selKeep(func(i int) *term.Term { return s.bytes[i] })
	}

	// Append the moved packets to dst (which may be the same shape but a
	// different capacity). Drops happen past dst capacity. Fields dst has
	// but the receiver lacks arrive as zero.
	dCount := d.count(c)
	dValid := make([]*term.Term, d.cfg.Cap)
	dFields := make([][]*term.Term, d.cfg.Cap)
	dBytes := make([]*term.Term, d.cfg.Cap)
	nf := min(d.cfg.NumFields, s.cfg.NumFields)
	// moved[f][k] is moved slot k's field f, with bytes at f == nf;
	// movedHit[k][i] says packet i is moved slot k. Neither depends on
	// the dst slot.
	moved := lazyTable(nf+1, len(want))
	movedHit := lazyTable(len(want), len(want))
	selMoved := func(k, f int) *term.Term {
		out := zero
		kT := b.IntConst(int64(k))
		for i := len(want) - 1; i >= 0; i-- {
			hit := movedHit[k].get(i, func() *term.Term { return b.And(want[i], b.Eq(wantRank[i], kT)) })
			v := s.bytes[i]
			if f < nf {
				v = s.fields[i][f]
			}
			out = b.Ite(hit, v, out)
		}
		return out
	}
	for j := 0; j < d.cfg.Cap; j++ {
		jT := b.IntConst(int64(j))
		isOld := b.Lt(jT, dCount)
		appIdx := b.Sub(jT, dCount) // index into the moved sequence
		isNew := b.And(b.Not(isOld), b.Lt(appIdx, movedCount))
		dValid[j] = b.Or(d.valid[j], isNew)
		appHit := make(lazy, len(want)) // moved slot k lands in slot j
		selApp := func(f int) *term.Term {
			out := zero
			for k := len(want) - 1; k >= 0; k-- {
				hit := appHit.get(k, func() *term.Term { return b.Eq(appIdx, b.IntConst(int64(k))) })
				out = b.Ite(hit, moved[f].get(k, func() *term.Term { return selMoved(k, f) }), out)
			}
			return out
		}
		fs := make([]*term.Term, d.cfg.NumFields)
		for f := range fs {
			app := zero
			if f < nf {
				app = selApp(f)
			}
			fs[f] = b.Ite(isNew, app, d.fields[j][f])
		}
		dFields[j] = fs
		dBytes[j] = b.Ite(isNew, selApp(nf), d.bytes[j])
	}
	// Packets that did not fit into dst are dropped there.
	overflow := b.Sub(b.Add(dCount, movedCount), b.IntConst(int64(d.cfg.Cap)))
	overflow = b.Max(overflow, zero)
	d.dropped = b.Add(d.dropped, overflow)

	s.valid, s.fields, s.bytes = newValid, newFields, newBytes
	d.valid, d.fields, d.bytes = dValid, dFields, dBytes
	return nil
}

// MoveP implements State: move the first min(n, matched) matching packets.
func (s *listState) MoveP(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	if f != nil && (f.Field < 0 || f.Field >= s.cfg.NumFields) {
		return fmt.Errorf("buffer: field index %d out of range", f.Field)
	}
	b := c.B
	mask := s.matchMask(c, f)
	want := make([]*term.Term, len(mask))
	rank := b.IntConst(0)
	for i, m := range mask {
		want[i] = b.And(g, m, b.Lt(rank, n))
		rank = b.Add(rank, boolToInt(b, m))
	}
	return s.move(c, dst, want)
}

// MoveB implements State: move the maximal matching prefix whose cumulative
// byte size is at most n.
func (s *listState) MoveB(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	if f != nil && (f.Field < 0 || f.Field >= s.cfg.NumFields) {
		return fmt.Errorf("buffer: field index %d out of range", f.Field)
	}
	b := c.B
	mask := s.matchMask(c, f)
	want := make([]*term.Term, len(mask))
	cum := b.IntConst(0)
	for i, m := range mask {
		cum = b.Add(cum, b.Ite(m, s.bytes[i], b.IntConst(0)))
		want[i] = b.And(g, m, b.Le(cum, n))
	}
	return s.move(c, dst, want)
}

// Arrive implements State.
func (s *listState) Arrive(c *Ctx, p Packet, g *term.Term) {
	b := c.B
	cnt := s.count(c)
	fits := b.Lt(cnt, b.IntConst(int64(s.cfg.Cap)))
	place := b.And(g, fits)
	for j := 0; j < s.cfg.Cap; j++ {
		here := b.And(place, b.Eq(cnt, b.IntConst(int64(j))))
		s.valid[j] = b.Or(s.valid[j], here)
		for f := 0; f < s.cfg.NumFields; f++ {
			var fv *term.Term
			if f < len(p.Fields) {
				fv = p.Fields[f]
			} else {
				fv = b.IntConst(0)
			}
			s.fields[j][f] = b.Ite(here, fv, s.fields[j][f])
		}
		bytes := p.Bytes
		if bytes == nil {
			bytes = b.IntConst(1)
		}
		s.bytes[j] = b.Ite(here, bytes, s.bytes[j])
	}
	s.dropped = b.Add(s.dropped, b.Ite(b.And(g, b.Not(fits)), b.IntConst(1), b.IntConst(0)))
}

// FlushInto implements State.
func (s *listState) FlushInto(c *Ctx, dst State) error {
	want := make([]*term.Term, len(s.valid))
	copy(want, s.valid)
	return s.move(c, dst, want)
}

// Slots implements State.
func (s *listState) Slots() []Slot {
	var out []Slot
	for i := range s.valid {
		out = append(out, Slot{fmt.Sprintf("slot%d.valid", i), s.valid[i]})
		for f := range s.fields[i] {
			out = append(out, Slot{fmt.Sprintf("slot%d.f%d", i, f), s.fields[i][f]})
		}
		out = append(out, Slot{fmt.Sprintf("slot%d.bytes", i), s.bytes[i]})
	}
	out = append(out, Slot{"dropped", s.dropped})
	return out
}

// SetSlots implements State.
func (s *listState) SetSlots(ts []*term.Term) {
	k := 0
	for i := range s.valid {
		s.valid[i] = ts[k]
		k++
		for f := range s.fields[i] {
			s.fields[i][f] = ts[k]
			k++
		}
		s.bytes[i] = ts[k]
		k++
	}
	s.dropped = ts[k]
}

// MultiFilterBacklog counts packets (or bytes) matching ALL the given
// filters — chained `|>` views, exact only at this precision level.
func (s *listState) MultiFilterBacklog(c *Ctx, fs []Filter, bytes bool) (*term.Term, error) {
	for _, f := range fs {
		if f.Field < 0 || f.Field >= s.cfg.NumFields {
			return nil, fmt.Errorf("buffer: field index %d out of range", f.Field)
		}
	}
	b := c.B
	terms := make([]*term.Term, len(s.valid))
	for i := range s.valid {
		m := s.valid[i]
		for _, f := range fs {
			m = b.And(m, b.Eq(s.fields[i][f.Field], f.Value))
		}
		if bytes {
			terms[i] = b.Ite(m, s.bytes[i], b.IntConst(0))
		} else {
			terms[i] = boolToInt(b, m)
		}
	}
	return b.Add(terms...), nil
}
