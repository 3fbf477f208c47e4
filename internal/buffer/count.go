package buffer

import (
	"fmt"

	"buffy/internal/smt/term"
)

// CountModel models a buffer as a single packet counter — the CCAC
// precision level. Packets are unit-sized (byte backlog equals packet
// backlog; move-b behaves like move-p), and packet contents are abstracted
// away entirely, so filters are not expressible: programs using filters
// must use the list or multiclass model (§3's precision trade-off).
type CountModel struct{}

// Name implements Model.
func (CountModel) Name() string { return "count" }

type countState struct {
	cfg     Config
	n       *term.Term // packets in buffer
	dropped *term.Term
}

// Empty implements Model.
func (CountModel) Empty(c *Ctx, cfg Config) State {
	cfg = cfg.Normalize()
	return &countState{cfg: cfg, n: c.B.IntConst(0), dropped: c.B.IntConst(0)}
}

// Symbolic implements Model: a fresh counter within [0, Cap] plus a
// non-negative drop counter.
func (CountModel) Symbolic(c *Ctx, cfg Config, prefix string) State {
	cfg = cfg.Normalize()
	b := c.B
	n := b.Var(prefix+".n", term.Int)
	c.Assume(b.Le(b.IntConst(0), n))
	c.Assume(b.Le(n, b.IntConst(int64(cfg.Cap))))
	d := b.Var(prefix+".dropped", term.Int)
	c.Assume(b.Le(b.IntConst(0), d))
	return &countState{cfg: cfg, n: n, dropped: d}
}

func (s *countState) Model() Model   { return CountModel{} }
func (s *countState) Config() Config { return s.cfg }
func (s *countState) Clone() State   { cp := *s; return &cp }

func (s *countState) Dropped() *term.Term { return s.dropped }

// BacklogP implements State.
func (s *countState) BacklogP(c *Ctx) *term.Term { return s.n }

// BacklogB implements State.
func (s *countState) BacklogB(c *Ctx) *term.Term { return s.n }

var errCountFilter = fmt.Errorf("buffer: the count model abstracts packet contents away and cannot evaluate filters; use the list or multiclass model")

// FilterBacklog implements State: the count model answers no filter.
func (s *countState) FilterBacklog(c *Ctx, fs []Filter, bytes bool) (*term.Term, error) {
	return nil, errCountFilter
}

// MoveP implements State.
func (s *countState) MoveP(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	if f != nil {
		return errCountFilter
	}
	d, ok := dst.(*countState)
	if !ok {
		return fmt.Errorf("buffer: cannot move between %s and %s states", s.Model().Name(), dst.Model().Name())
	}
	if d == s {
		return fmt.Errorf("buffer: move source and destination are the same buffer")
	}
	b := c.B
	zero := b.IntConst(0)
	moved := b.Max(zero, b.Min(n, s.n)) // clamp to [0, backlog]
	moved = b.Ite(g, moved, zero)
	free := b.Sub(b.IntConst(int64(d.cfg.Cap)), d.n)
	accepted := b.Min(moved, b.Max(free, zero))
	s.n = b.Sub(s.n, moved)
	d.n = b.Add(d.n, accepted)
	d.dropped = b.Add(d.dropped, b.Sub(moved, accepted))
	return nil
}

// MoveB implements State: unit-size packets make bytes equal packets.
func (s *countState) MoveB(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	return s.MoveP(c, dst, n, f, g)
}

// Arrive implements State.
func (s *countState) Arrive(c *Ctx, p Packet, g *term.Term) {
	b := c.B
	fits := b.Lt(s.n, b.IntConst(int64(s.cfg.Cap)))
	s.n = b.Add(s.n, b.Ite(b.And(g, fits), b.IntConst(1), b.IntConst(0)))
	s.dropped = b.Add(s.dropped, b.Ite(b.And(g, b.Not(fits)), b.IntConst(1), b.IntConst(0)))
}

// FlushInto implements State.
func (s *countState) FlushInto(c *Ctx, dst State) error {
	return s.MoveP(c, dst, s.n, nil, c.B.True())
}
