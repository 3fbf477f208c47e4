package buffer

import (
	"fmt"

	"buffy/internal/smt/term"
)

// MultiClassModel models a buffer as one packet counter per traffic class
// (the class is packet field 0, bounded by Config.NumClasses). Filters on
// field 0 are exact. Packet order inside the buffer is abstracted away, so
// an unfiltered partial move cannot know which classes the departing FIFO
// prefix belongs to: it is encoded as a nondeterministic split across
// classes — every FIFO behaviour is included, which makes the model a
// sound overapproximation at much lower encoding cost than the list model.
type MultiClassModel struct{}

// Name implements Model.
func (MultiClassModel) Name() string { return "multiclass" }

type multiClassState struct {
	cfg     Config
	counts  []*term.Term // per class
	dropped *term.Term
}

// Empty implements Model.
func (MultiClassModel) Empty(c *Ctx, cfg Config) State {
	cfg = cfg.Normalize()
	s := &multiClassState{cfg: cfg, dropped: c.B.IntConst(0)}
	for i := 0; i < cfg.NumClasses; i++ {
		s.counts = append(s.counts, c.B.IntConst(0))
	}
	return s
}

// Symbolic implements Model: fresh non-negative per-class counters whose
// total respects the capacity, plus a non-negative drop counter.
func (MultiClassModel) Symbolic(c *Ctx, cfg Config, prefix string) State {
	cfg = cfg.Normalize()
	b := c.B
	s := &multiClassState{cfg: cfg}
	sum := b.IntConst(0)
	for i := 0; i < cfg.NumClasses; i++ {
		cnt := b.Var(fmt.Sprintf("%s.class%d", prefix, i), term.Int)
		c.Assume(b.Le(b.IntConst(0), cnt))
		s.counts = append(s.counts, cnt)
		sum = b.Add(sum, cnt)
	}
	c.Assume(b.Le(sum, b.IntConst(int64(cfg.Cap))))
	d := b.Var(prefix+".dropped", term.Int)
	c.Assume(b.Le(b.IntConst(0), d))
	s.dropped = d
	return s
}

func (s *multiClassState) Model() Model   { return MultiClassModel{} }
func (s *multiClassState) Config() Config { return s.cfg }

func (s *multiClassState) Clone() State {
	out := &multiClassState{cfg: s.cfg, dropped: s.dropped}
	out.counts = append([]*term.Term(nil), s.counts...)
	return out
}

func (s *multiClassState) Dropped() *term.Term { return s.dropped }

func (s *multiClassState) total(c *Ctx) *term.Term {
	return c.B.Add(s.counts...)
}

// BacklogP implements State.
func (s *multiClassState) BacklogP(c *Ctx) *term.Term { return s.total(c) }

// BacklogB implements State (unit-size packets).
func (s *multiClassState) BacklogB(c *Ctx) *term.Term { return s.total(c) }

func (s *multiClassState) classCount(c *Ctx, val *term.Term) *term.Term {
	out := c.B.IntConst(0)
	for cl := len(s.counts) - 1; cl >= 0; cl-- {
		out = c.B.Ite(c.B.Eq(val, c.B.IntConst(int64(cl))), s.counts[cl], out)
	}
	return out
}

func (s *multiClassState) checkFilter(f Filter) error {
	if f.Field != 0 {
		return fmt.Errorf("buffer: the multiclass model only tracks field 0 (the class field); filter on field %d needs the list model", f.Field)
	}
	return nil
}

// FilterBacklog implements State: exactly one filter, on the class field.
// Packets are unit-sized, so the byte count is the packet count.
func (s *multiClassState) FilterBacklog(c *Ctx, fs []Filter, bytes bool) (*term.Term, error) {
	if len(fs) != 1 {
		return nil, fmt.Errorf("buffer: the multiclass model evaluates one filter at a time; chained filters need the list model")
	}
	if err := s.checkFilter(fs[0]); err != nil {
		return nil, err
	}
	return s.classCount(c, fs[0].Value), nil
}

// MoveP implements State.
func (s *multiClassState) MoveP(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	d, ok := dst.(*multiClassState)
	if !ok {
		return fmt.Errorf("buffer: cannot move between %s and %s states", s.Model().Name(), dst.Model().Name())
	}
	if len(d.counts) != len(s.counts) {
		return fmt.Errorf("buffer: class count mismatch (%d vs %d)", len(s.counts), len(d.counts))
	}
	if d == s {
		return fmt.Errorf("buffer: move source and destination are the same buffer")
	}
	b := c.B
	zero := b.IntConst(0)

	if f != nil {
		if err := s.checkFilter(*f); err != nil {
			return err
		}
		// Filtered move: exact — take from the selected class only.
		avail := s.classCount(c, f.Value)
		moved := b.Ite(g, b.Max(zero, b.Min(n, avail)), zero)
		for cl := range s.counts {
			isCl := b.Eq(f.Value, b.IntConst(int64(cl)))
			take := b.Ite(isCl, moved, zero)
			s.counts[cl] = b.Sub(s.counts[cl], take)
		}
		s.deposit(c, d, func(cl int) *term.Term {
			return b.Ite(b.Eq(f.Value, b.IntConst(int64(cl))), moved, zero)
		}, moved)
		return nil
	}

	// Unfiltered move: order is abstracted, so the class split of the
	// departing packets is a fresh nondeterministic choice constrained to
	// be feasible. This includes every FIFO behaviour (soundness) but also
	// non-FIFO ones (overapproximation) — the price of the cheaper model.
	total := s.total(c)
	moved := b.Ite(g, b.Max(zero, b.Min(n, total)), zero)
	takes := make([]*term.Term, len(s.counts))
	sum := zero
	for cl := range s.counts {
		tk := c.FreshInt(fmt.Sprintf("mcmove.c%d", cl))
		c.Assume(b.Le(zero, tk))
		c.Assume(b.Le(tk, s.counts[cl]))
		takes[cl] = tk
		sum = b.Add(sum, tk)
	}
	c.Assume(b.Eq(sum, moved))
	for cl := range s.counts {
		s.counts[cl] = b.Sub(s.counts[cl], takes[cl])
	}
	s.deposit(c, d, func(cl int) *term.Term { return takes[cl] }, moved)
	return nil
}

// deposit adds per-class arrivals into d, dropping overflow past capacity
// (the dropped packets' class split is again nondeterministic but
// consistent).
func (s *multiClassState) deposit(c *Ctx, d *multiClassState, take func(cl int) *term.Term, moved *term.Term) {
	b := c.B
	zero := b.IntConst(0)
	free := b.Max(zero, b.Sub(b.IntConst(int64(d.cfg.Cap)), d.total(c)))
	accepted := b.Min(moved, free)
	overflow := b.Sub(moved, accepted)
	// Accepted per class: nondeterministic split of 'accepted' bounded by
	// what actually arrived per class.
	acc := make([]*term.Term, len(d.counts))
	sum := zero
	for cl := range d.counts {
		a := c.FreshInt(fmt.Sprintf("mcacc.c%d", cl))
		c.Assume(b.Le(zero, a))
		c.Assume(b.Le(a, take(cl)))
		acc[cl] = a
		sum = b.Add(sum, a)
	}
	c.Assume(b.Eq(sum, accepted))
	for cl := range d.counts {
		d.counts[cl] = b.Add(d.counts[cl], acc[cl])
	}
	d.dropped = b.Add(d.dropped, overflow)
}

// MoveB implements State (unit-size packets).
func (s *multiClassState) MoveB(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	return s.MoveP(c, dst, n, f, g)
}

// Arrive implements State.
func (s *multiClassState) Arrive(c *Ctx, p Packet, g *term.Term) {
	b := c.B
	zero := b.IntConst(0)
	cls := zero
	if len(p.Fields) > 0 {
		cls = p.Fields[0]
	}
	fits := b.Lt(s.total(c), b.IntConst(int64(s.cfg.Cap)))
	place := b.And(g, fits)
	for cl := range s.counts {
		here := b.And(place, b.Eq(cls, b.IntConst(int64(cl))))
		s.counts[cl] = b.Add(s.counts[cl], b.Ite(here, b.IntConst(1), zero))
	}
	s.dropped = b.Add(s.dropped, b.Ite(b.And(g, b.Not(fits)), b.IntConst(1), zero))
}

// FlushInto implements State.
func (s *multiClassState) FlushInto(c *Ctx, dst State) error {
	d, ok := dst.(*multiClassState)
	if !ok {
		return fmt.Errorf("buffer: cannot flush between %s and %s states", s.Model().Name(), dst.Model().Name())
	}
	// Flushing everything needs no nondeterminism: per-class counts move
	// wholesale (subject to capacity).
	b := c.B
	zero := b.IntConst(0)
	moved := s.total(c)
	free := b.Max(zero, b.Sub(b.IntConst(int64(d.cfg.Cap)), d.total(c)))
	accepted := b.Min(moved, free)
	overflow := b.Sub(moved, accepted)
	acc := make([]*term.Term, len(d.counts))
	sum := zero
	for cl := range d.counts {
		a := c.FreshInt(fmt.Sprintf("mcflush.c%d", cl))
		c.Assume(b.Le(zero, a))
		c.Assume(b.Le(a, s.counts[cl]))
		acc[cl] = a
		sum = b.Add(sum, a)
	}
	c.Assume(b.Eq(sum, accepted))
	for cl := range d.counts {
		d.counts[cl] = b.Add(d.counts[cl], acc[cl])
		s.counts[cl] = zero
	}
	d.dropped = b.Add(d.dropped, overflow)
	return nil
}
