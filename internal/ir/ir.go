// Package ir lowers checked Buffy programs into solver-ready term DAGs.
// The lowering applies exactly the transformations §4 of the paper names:
// bounded loops are fully unrolled, control flow is converted to guarded
// (single-assignment) updates — the SSA step —, arrays are flattened to
// scalar slots to avoid array theories (§7), buffer operations are expanded
// through the selected buffer model, and run-time buffer indices (ibs[head])
// are case-split over all candidate buffers, just like FPerf's hand-written
// per-queue enumeration in Figure 1.
//
// Two entry points cover the back-ends' needs:
//
//   - Compile unrolls a program over a bounded horizon T starting from the
//     empty initial state, producing assumption and assertion terms over
//     symbolic input traffic — the bounded-model-checking encoding.
//   - NewMachine exposes single-step execution over caller-controlled
//     state, which the composition runtime chains across programs and the
//     transition-system back-end uses to build a step relation.
package ir

import (
	"context"
	"fmt"
	"sort"

	"buffy/internal/buffer"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/term"
	"buffy/internal/telemetry"
)

// Options configures compilation.
type Options struct {
	// Model is the buffer model; nil means the list model.
	Model buffer.Model
	// T is the time horizon (number of steps) for Compile.
	T int
	// Params binds the program's compile-time parameters.
	Params map[string]int64
	// Bounds size buffers, lists and packets; zero fields take the
	// defaults of typecheck.ResolveBounds.
	typecheck.Bounds
	// NoArrivals disables symbolic input traffic (used by the composition
	// runtime for internally-connected buffers and by custom drivers).
	NoArrivals bool
	// NamePrefix overrides the variable-name namespace (default: the
	// program name). Required when instantiating the same program more
	// than once in a composition, so the instances' symbolic variables
	// stay distinct.
	NamePrefix string
	// SymbolicT makes the builtin T evaluate to a fresh integer variable
	// (Machine.TVar) instead of the constant opts.T. One compiled
	// unrolling then serves every horizon k <= opts.T: solve under the
	// assumption TVar == k and the T-referencing guards (t == T - 1 and
	// friends) select the right step by themselves. T stays a
	// compile-time constant in constant positions (loop bounds, array
	// sizes) — those force the shapes of the encoding and cannot be
	// deferred to the solver — so programs that use T there are rejected;
	// ScanHorizon classifies programs up front.
	SymbolicT bool
}

// Error is a compile-time lowering error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%v: %s", e.Pos, e.Msg) }

// AssertInst is one assert(E) instance reached during unrolling.
type AssertInst struct {
	Step  int
	Guard *term.Term // path condition under which the assert executes
	Cond  *term.Term // the asserted condition
	Pos   Pos
}

// Pos mirrors token.Pos without re-exporting the token package.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Arrival describes one symbolic arrival slot (a potential input packet).
type Arrival struct {
	Step   int
	Buffer string // instance name, e.g. "ibs[0]"
	Slot   int
	Valid  *term.Term
	Fields []*term.Term
	Bytes  *term.Term
}

// HavocVar records one nondeterministic value introduced by a havoc
// statement; its value in a model is part of the execution trace.
type HavocVar struct {
	Step int
	Name string
	Var  *term.Term
}

// StepSnapshot captures program state at the end of a step.
type StepSnapshot struct {
	// Vars holds globals and monitors (scalars) by name; array elements
	// appear as name[i].
	Vars map[string]*term.Term
	// Buffers maps buffer instance names to their states.
	Buffers map[string]buffer.State
}

// Compiled is the result of unrolling a program over T steps.
type Compiled struct {
	Info *typecheck.Info
	Opts Options
	B    *term.Builder

	// Assumes conjoins buffer-model side constraints, arrival
	// well-formedness and program assume() statements.
	Assumes []*term.Term
	// Asserts lists every assert instance reached during unrolling.
	Asserts []AssertInst
	// Arrivals lists all symbolic input slots, in (step, buffer, slot) order.
	Arrivals []Arrival
	// Havocs lists the nondeterministic havoc variables in creation order.
	Havocs []HavocVar
	// Steps holds end-of-step snapshots, Steps[t] for step t.
	Steps []StepSnapshot
	// InputNames and OutputNames list buffer instance names by direction.
	InputNames  []string
	OutputNames []string
}

// AssertHolds returns the term "every reached assert instance holds".
func (c *Compiled) AssertHolds() *term.Term { return c.AssertHoldsUpTo(len(c.Steps)) }

// AssertReached returns the term "at least one assert instance is reached".
func (c *Compiled) AssertReached() *term.Term { return c.AssertReachedUpTo(len(c.Steps)) }

// Violation returns the term "some reached assert instance fails".
func (c *Compiled) Violation() *term.Term { return c.ViolationUpTo(len(c.Steps)) }

// AssertHoldsUpTo is AssertHolds restricted to assert instances from
// steps 0..k-1. A symbolic-T session unrolled to maxT uses these UpTo
// variants to pose the horizon-k query over the shared encoding.
func (c *Compiled) AssertHoldsUpTo(k int) *term.Term {
	var parts []*term.Term
	for _, a := range c.Asserts {
		if a.Step < k {
			parts = append(parts, c.B.Implies(a.Guard, a.Cond))
		}
	}
	return c.B.And(parts...)
}

// AssertReachedUpTo is AssertReached restricted to steps 0..k-1.
func (c *Compiled) AssertReachedUpTo(k int) *term.Term {
	var parts []*term.Term
	for _, a := range c.Asserts {
		if a.Step < k {
			parts = append(parts, a.Guard)
		}
	}
	return c.B.Or(parts...)
}

// ViolationUpTo is Violation restricted to steps 0..k-1.
func (c *Compiled) ViolationUpTo(k int) *term.Term {
	var parts []*term.Term
	for _, a := range c.Asserts {
		if a.Step < k {
			parts = append(parts, c.B.And(a.Guard, c.B.Not(a.Cond)))
		}
	}
	return c.B.Or(parts...)
}

// TruncatedTo returns a shallow copy of the compilation restricted to the
// first k steps: snapshots, arrivals and havocs from later steps are
// dropped so trace extraction over a horizon-k model never reads the
// unconstrained tail of a deeper unrolling. The term DAG, assumes and
// asserts are shared with the receiver.
func (c *Compiled) TruncatedTo(k int) *Compiled {
	if k >= len(c.Steps) {
		return c
	}
	out := *c
	out.Steps = c.Steps[:k]
	out.Arrivals = nil
	for _, a := range c.Arrivals {
		if a.Step < k {
			out.Arrivals = append(out.Arrivals, a)
		}
	}
	out.Havocs = nil
	for _, h := range c.Havocs {
		if h.Step < k {
			out.Havocs = append(out.Havocs, h)
		}
	}
	return &out
}

// Compile unrolls prog over opts.T steps from the empty initial state with
// symbolic input traffic.
func Compile(info *typecheck.Info, b *term.Builder, opts Options) (*Compiled, error) {
	return CompileContext(context.Background(), info, b, opts)
}

// CompileContext is Compile with cooperative cancellation: the unrolling
// stops between steps once ctx is cancelled, so a long symbolic
// compilation (the dominant cost at large horizons) aborts promptly
// instead of running to completion for an abandoned analysis.
func CompileContext(ctx context.Context, info *typecheck.Info, b *term.Builder, opts Options) (*Compiled, error) {
	m, err := NewMachine(info, b, opts)
	if err != nil {
		return nil, err
	}
	if err := m.Unroll(ctx, m.opts.T); err != nil {
		return nil, err
	}
	return m.Result(), nil
}

// Unroll runs steps until the machine has unrolled k of them, stopping
// between steps once ctx is cancelled. The work goes on a "compile" span;
// a machine already k steps deep opens none. The span counts the distinct
// terms the unrolling added to the builder and the intern lookups it made
// there, hits included. Both are deltas, so a shared builder counts only
// this machine: the first Unroll counts from before NewMachine, a later
// one from its own start.
func (m *Machine) Unroll(ctx context.Context, k int) error {
	from := len(m.steps)
	if from >= k {
		return nil
	}
	_, span := telemetry.StartSpan(ctx, "compile")
	defer span.End()
	terms0, lookups0 := m.b.NumTerms(), m.b.Lookups()
	if from == 0 {
		terms0, lookups0 = m.terms0, m.lookups0
	}
	for t := from; t < k; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.RunStep(t); err != nil {
			return err
		}
	}
	span.SetAttrs(
		telemetry.Int("steps", int64(k-from)),
		telemetry.Count("terms", int64(m.b.NumTerms()-terms0)),
		telemetry.Count("intern_lookups", m.b.Lookups()-lookups0))
	return nil
}

// sortedNames returns map keys in sorted order (deterministic output).
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
