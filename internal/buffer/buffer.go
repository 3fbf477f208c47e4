// Package buffer implements Buffy's buffer models at the paper's different
// precision levels (§3 "Buffer models with varying precision"):
//
//   - ListModel: a buffer is a bounded list of packets with per-packet
//     field values and sizes — FPerf's precision level. Supports everything:
//     packet order, filters, byte-granularity moves.
//   - CountModel: a buffer is just a packet counter — CCAC's precision
//     level (unit-size packets, so byte backlog equals packet backlog).
//     Filters are not expressible at this level and are rejected.
//   - MultiClassModel: per-traffic-class packet counters (the paper's
//     "sets of integers each representing the total number of packets ...
//     from different traffic classes"). Filters on the class field are
//     exact; packet order within the buffer is abstracted, so unfiltered
//     partial moves become a nondeterministic class split (a sound
//     overapproximation of FIFO order).
//
// All models encode buffer state as terms, so the same Buffy program
// compiles against any model without modification. The contract is what
// the compiler calls: a Model builds states (Name, Empty, Symbolic), and a
// State answers the backlogs (BacklogP, BacklogB, and FilterBacklog for
// any filter chain its precision level can express), moves packets
// (MoveP, MoveB, FlushInto), takes arrivals (Arrive), counts drops
// (Dropped) and copies itself (Clone).
package buffer

import (
	"fmt"

	"buffy/internal/smt/term"
)

// Ctx carries what models need to emit encodings: the term builder, a sink
// for semantic side constraints (used by nondeterministic encodings), and a
// fresh-variable source.
type Ctx struct {
	B *term.Builder

	// Assume records a constraint that is part of the buffer semantics and
	// must hold in every considered execution.
	Assume func(t *term.Term)

	fresh int
	// Prefix distinguishes variable namespaces (e.g. program/step).
	Prefix string
}

// FreshInt returns a fresh integer variable.
func (c *Ctx) FreshInt(hint string) *term.Term {
	c.fresh++
	return c.B.Var(fmt.Sprintf("%s!%s#%d", c.Prefix, hint, c.fresh), term.Int)
}

// Config describes a buffer's shape.
type Config struct {
	// Cap is the maximum number of packets the buffer can hold; arrivals
	// and moves beyond it are dropped (and counted). For the list model it
	// is also the representation bound.
	Cap int
	// NumFields is the number of packet fields (≥1).
	NumFields int
	// NumClasses bounds field-0 values for the multiclass model:
	// classes are 0..NumClasses-1.
	NumClasses int
	// MaxBytes bounds a single packet's byte size (list model arrivals).
	MaxBytes int
	// Live is the slot state a list buffer tracks; nil tracks all of it.
	Live *Live
}

// Live is the slot state a program can read: the packet fields some filter
// names, and the byte sizes when some byte view or move-b reads them. A
// list buffer keeps every other field, and untracked sizes, at 0 in every
// slot and builds no terms for them. The other models ignore it.
type Live struct {
	Fields []bool // Fields[f]: field f is tracked
	Bytes  bool
}

// Union returns the slot state l or o tracks; nil tracks everything.
func (l *Live) Union(o *Live) *Live {
	if l == nil || o == nil {
		return nil
	}
	u := &Live{Fields: make([]bool, max(len(l.Fields), len(o.Fields))), Bytes: l.Bytes || o.Bytes}
	for f := range u.Fields {
		u.Fields[f] = f < len(l.Fields) && l.Fields[f] || f < len(o.Fields) && o.Fields[f]
	}
	return u
}

// tracksField reports whether a list buffer of this shape tracks field f.
func (cfg Config) tracksField(f int) bool {
	return cfg.Live == nil || f < len(cfg.Live.Fields) && cfg.Live.Fields[f]
}

// tracksBytes reports whether a list buffer of this shape tracks sizes.
func (cfg Config) tracksBytes() bool { return cfg.Live == nil || cfg.Live.Bytes }

// Packet is a symbolic packet: per-field values and a byte size.
type Packet struct {
	Fields []*term.Term // ints
	Bytes  *term.Term   // int >= 1
}

// Filter restricts an operation to packets whose field Field equals Value.
type Filter struct {
	Field int
	Value *term.Term
}

// Model constructs buffer states of one precision level.
type Model interface {
	Name() string
	// Empty returns a concretely-empty buffer state.
	Empty(c *Ctx, cfg Config) State
	// Symbolic returns a state of fresh variables constrained (via
	// c.Assume) to the model's reachable-state well-formedness invariant —
	// the starting point for inductive reasoning over arbitrary horizons.
	Symbolic(c *Ctx, cfg Config, prefix string) State
}

// State is the symbolic contents of one buffer. Mutating methods update the
// receiver in place; use Clone before branching.
type State interface {
	Model() Model
	Config() Config
	Clone() State

	// BacklogP returns the number of packets currently in the buffer.
	BacklogP(c *Ctx) *term.Term
	// BacklogB returns the number of bytes currently in the buffer.
	BacklogB(c *Ctx) *term.Term
	// FilterBacklog returns the packet count (or, with bytes, the byte
	// count) of the packets that pass every filter in fs, which holds at
	// least one. A model answers only the chains its precision level can
	// express and returns an error for the others.
	FilterBacklog(c *Ctx, fs []Filter, bytes bool) (*term.Term, error)

	// MoveP moves min(n, filtered backlog) packets from the receiver into
	// dst, under guard g (no effect where g is false). f may be nil.
	MoveP(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error
	// MoveB moves the maximal prefix of (filtered) packets whose total
	// size is at most n bytes, under guard g.
	MoveB(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error

	// Arrive appends one packet under guard g (dropped if full).
	Arrive(c *Ctx, p Packet, g *term.Term)
	// FlushInto moves the entire contents into dst (dst capacity applies)
	// and empties the receiver.
	FlushInto(c *Ctx, dst State) error

	// Dropped returns the cumulative count of packets dropped at this
	// buffer (capacity overflow) — the loss signal for queries.
	Dropped() *term.Term
}

// ModelByName returns a model by its name ("list", "count", "multiclass").
func ModelByName(name string) (Model, error) {
	switch name {
	case "list", "":
		return ListModel{}, nil
	case "count":
		return CountModel{}, nil
	case "multiclass":
		return MultiClassModel{}, nil
	}
	return nil, fmt.Errorf("buffer: unknown model %q", name)
}

// Normalize fills config defaults.
func (cfg Config) Normalize() Config {
	if cfg.Cap <= 0 {
		cfg.Cap = 8
	}
	if cfg.NumFields <= 0 {
		cfg.NumFields = 1
	}
	if cfg.NumClasses <= 0 {
		cfg.NumClasses = 4
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 4
	}
	return cfg
}
