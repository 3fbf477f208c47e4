// Package compose implements Buffy's program composition (§3
// "Composition"): programs are wired together by connecting an output
// buffer of one to an input buffer of another, and at the end of every
// time step the contents of each connected output are flushed into the
// corresponding input, becoming visible at the next step. The user writes
// no plumbing code — declaring the connection is enough, exactly as the
// paper promises ("Buffy will augment programs to implement the mechanics
// of the composition").
//
// This is the machinery behind the CCAC case study (§6.2): the congestion
// control algorithm, the path server and the fixed-delay server are three
// independent Buffy programs composed through their buffers (Figure 7).
package compose

import (
	"context"
	"fmt"
	"time"

	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// Conn is one buffer connection.
type Conn struct {
	FromProg, FromBuf string // output buffer instance, e.g. "path", "pab"
	ToProg, ToBuf     string // input buffer instance, e.g. "delay", "din"
}

// System is a set of Buffy programs composed through buffer connections.
type System struct {
	b        *term.Builder
	machines map[string]*ir.Machine
	order    []string
	conns    []Conn
	// connectedIn marks input instances that receive flushes (and thus no
	// external symbolic arrivals).
	connectedIn  map[string]map[string]bool
	connectedOut map[string]map[string]bool

	ctx     *buffer.Ctx
	assumes []*term.Term
	steps   int
}

// NewSystem returns an empty system building terms in b.
func NewSystem(b *term.Builder) *System {
	s := &System{
		b:            b,
		machines:     make(map[string]*ir.Machine),
		connectedIn:  make(map[string]map[string]bool),
		connectedOut: make(map[string]map[string]bool),
	}
	s.ctx = &buffer.Ctx{
		B:      b,
		Assume: func(t *term.Term) { s.assumes = append(s.assumes, t) },
		Prefix: "compose",
	}
	return s
}

// Add instantiates a program in the system under its own name.
// opts.NoArrivals is forced: the system controls arrival injection per
// input buffer.
func (s *System) Add(info *typecheck.Info, opts ir.Options) (*ir.Machine, error) {
	return s.AddInstance(info.Prog.Name, info, opts)
}

// AddInstance instantiates a program under an explicit instance name,
// allowing the same program to appear several times (e.g. chaining D
// one-step delay stages for a delay of D). Instance names must be unique;
// they also namespace the instance's symbolic variables.
func (s *System) AddInstance(name string, info *typecheck.Info, opts ir.Options) (*ir.Machine, error) {
	if _, dup := s.machines[name]; dup {
		return nil, fmt.Errorf("compose: instance %q added twice", name)
	}
	opts.NoArrivals = true
	opts.NamePrefix = name
	m, err := ir.NewMachine(info, s.b, opts)
	if err != nil {
		return nil, err
	}
	s.machines[name] = m
	s.order = append(s.order, name)
	s.connectedIn[name] = make(map[string]bool)
	s.connectedOut[name] = make(map[string]bool)
	return m, nil
}

// Machine returns a program's machine by name.
func (s *System) Machine(prog string) *ir.Machine { return s.machines[prog] }

// Connect wires fromProg's output buffer instance to toProg's input buffer
// instance.
func (s *System) Connect(fromProg, fromBuf, toProg, toBuf string) error {
	from, ok := s.machines[fromProg]
	if !ok {
		return fmt.Errorf("compose: unknown program %q", fromProg)
	}
	to, ok := s.machines[toProg]
	if !ok {
		return fmt.Errorf("compose: unknown program %q", toProg)
	}
	if !contains(from.OutputNames(), fromBuf) {
		return fmt.Errorf("compose: %s has no output buffer %q", fromProg, fromBuf)
	}
	if !contains(to.InputNames(), toBuf) {
		return fmt.Errorf("compose: %s has no input buffer %q", toProg, toBuf)
	}
	if s.connectedOut[fromProg][fromBuf] {
		return fmt.Errorf("compose: output %s.%s already connected", fromProg, fromBuf)
	}
	if s.connectedIn[toProg][toBuf] {
		return fmt.Errorf("compose: input %s.%s already connected", toProg, toBuf)
	}
	s.connectedOut[fromProg][fromBuf] = true
	s.connectedIn[toProg][toBuf] = true
	s.conns = append(s.conns, Conn{fromProg, fromBuf, toProg, toBuf})
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Run executes T composed steps: external inputs receive symbolic
// arrivals, every program runs its step, then connected outputs flush into
// their inputs (visible next step). Each program's step is traced as a
// compile span under ctx, and a step stops once ctx is done, returning
// ctx's error. Run a system once.
func (s *System) Run(ctx context.Context, T int) error {
	if s.steps == 0 {
		s.shareLiveState()
	}
	s.steps = T
	for t := 0; t < T; t++ {
		for _, name := range s.order {
			m := s.machines[name]
			var external []string
			for _, in := range m.InputNames() {
				if !s.connectedIn[name][in] {
					external = append(external, in)
				}
			}
			m.InjectArrivalsInto(t, external)
			if err := m.Unroll(ctx, t+1); err != nil {
				return fmt.Errorf("compose: %s step %d: %w", name, t, err)
			}
		}
		for _, c := range s.conns {
			src := s.machines[c.FromProg].Buffers()[c.FromBuf]
			dst := s.machines[c.ToProg].Buffers()[c.ToBuf]
			if err := src.FlushInto(s.ctx, dst); err != nil {
				return fmt.Errorf("compose: flush %s.%s -> %s.%s: %w",
					c.FromProg, c.FromBuf, c.ToProg, c.ToBuf, err)
			}
		}
	}
	return nil
}

// shareLiveState makes every buffer in the system track the slot state
// any of its programs reads (buffer.Config.Live). A flush carries packets
// from one program into the next, and the downstream program may filter
// on a field or read sizes the upstream one never reads. It runs before
// the first step, while every buffer is still empty.
func (s *System) shareLiveState() {
	live := &buffer.Live{}
	for _, name := range s.order {
		for _, st := range s.machines[name].Buffers() {
			live = live.Union(st.Config().Live)
		}
	}
	for _, name := range s.order {
		m := s.machines[name]
		for _, bn := range m.BufferNames() {
			st := m.Buffers()[bn]
			cfg := st.Config()
			cfg.Live = live
			m.SetBuffer(bn, st.Model().Empty(m.Ctx(), cfg))
		}
	}
}

// Assumes returns all accumulated assumptions: per-program semantics and
// assume() statements plus flush side constraints.
func (s *System) Assumes() []*term.Term {
	out := append([]*term.Term(nil), s.assumes...)
	for _, name := range s.order {
		out = append(out, s.machines[name].Assumes()...)
	}
	return out
}

// Asserts returns all assert instances across programs.
func (s *System) Asserts() []ir.AssertInst {
	var out []ir.AssertInst
	for _, name := range s.order {
		out = append(out, s.machines[name].Asserts()...)
	}
	return out
}

// Arrivals returns all symbolic external arrivals across programs.
func (s *System) Arrivals() []ir.Arrival {
	var out []ir.Arrival
	for _, name := range s.order {
		out = append(out, s.machines[name].Result().Arrivals...)
	}
	return out
}

// Ctx returns the system's buffer context (for building query terms over
// buffer states).
func (s *System) Ctx() *buffer.Ctx { return s.ctx }

// CheckResult is the outcome of a system-level query.
type CheckResult struct {
	Sat      bool
	Unknown  bool
	Solver   *solver.Solver
	Duration time.Duration
	SatStats sat.Stats
}

// CheckQuery decides whether some execution of the composed system
// satisfies the query term together with all assumptions and program
// asserts treated as assumptions (witness semantics). The solver must be
// the one whose builder the system was created with. Cancelling ctx
// aborts the check with ctx's error.
func (s *System) CheckQuery(ctx context.Context, sv *solver.Solver, query *term.Term) (*CheckResult, error) {
	start := time.Now()
	terms := s.Assumes()
	for _, a := range s.Asserts() {
		terms = append(terms, s.b.Implies(a.Guard, a.Cond))
	}
	if err := sv.AssertAll(ctx, append(terms, query)); err != nil {
		return nil, err
	}
	r := sv.Check(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CheckResult{
		Sat:      r == solver.Sat,
		Unknown:  r == solver.Unknown,
		Solver:   sv,
		Duration: time.Since(start),
		SatStats: sv.Effort(),
	}, nil
}
