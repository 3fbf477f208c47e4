package ir

import (
	"context"
	"errors"
	"fmt"

	"buffy/internal/buffer"
	"buffy/internal/lang/ast"
	tok "buffy/internal/lang/token"
	"buffy/internal/lang/typecheck"
	"buffy/internal/smt/term"
)

// listVal is a Buffy list lowered to bounded scalar slots (array
// flattening, §7). Slot 0 is the front.
type listVal struct {
	elems []*term.Term
	size  *term.Term
}

// Machine symbolically executes one Buffy program step by step. All state
// lives in term-land; the machine is the paper's "one time step" semantics
// made executable over symbolic values.
type Machine struct {
	info *typecheck.Info
	opts Options
	b    *term.Builder
	ctx  *buffer.Ctx

	// scalar state: globals, locals, monitors (name or name[i]).
	vars map[string]*term.Term
	// array sizes by variable name.
	arraySize map[string]int64
	lists     map[string]*listVal
	// buffer instances in declaration order; bufIdx resolves names.
	bufNames []string
	bufs     map[string]buffer.State
	// bufParam maps a parameter name to its instance names (len 1 for
	// scalars, N for buffer arrays).
	bufInstances map[string][]string

	step     int
	loopWork int64 // the product of the enclosing loops' trip counts
	// broken is set once a step stops part-way (see ErrStepInterrupted).
	broken   error
	havocSeq int
	havocs   []HavocVar
	tvar     *term.Term // value of builtin T under Options.SymbolicT
	curT     *term.Term // value of builtin t during the current step
	guard    *term.Term // current path condition
	assumes  []*term.Term
	asserts  []AssertInst
	arrivals []Arrival
	steps    []StepSnapshot

	inputNames  []string
	outputNames []string

	prefix string

	// The builder's term count and intern lookups before NewMachine, so
	// the first Unroll's compile span counts the initial state's terms.
	terms0   int
	lookups0 int64
}

func pos(p tok.Pos) Pos { return Pos{Line: p.Line, Col: p.Col} }

// NewMachine creates a machine with empty initial state.
func NewMachine(info *typecheck.Info, b *term.Builder, opts Options) (*Machine, error) {
	m := &Machine{
		info:         info,
		b:            b,
		vars:         make(map[string]*term.Term),
		arraySize:    make(map[string]int64),
		lists:        make(map[string]*listVal),
		bufs:         make(map[string]buffer.State),
		bufInstances: make(map[string][]string),
		prefix:       info.Prog.Name,
		terms0:       b.NumTerms(),
		lookups0:     b.Lookups(),
	}
	if opts.NamePrefix != "" {
		m.prefix = opts.NamePrefix
	}

	// Validate parameters.
	for _, p := range info.Params {
		if _, ok := opts.Params[p]; !ok {
			return nil, fmt.Errorf("ir: program %s needs a value for compile-time parameter %q", info.Prog.Name, p)
		}
	}

	m.opts = opts
	m.opts.T = max(opts.T, 1)
	if m.opts.Model == nil {
		m.opts.Model = buffer.ListModel{}
	}
	// Buffer-array sizes, checked before ResolveBounds counts instances.
	sizes := make([]int64, len(info.Prog.Params))
	for i, bp := range info.Prog.Params {
		sizes[i] = 1
		if bp.Size != nil {
			n, err := m.fold(bp.Size, nil)
			if err != nil {
				return nil, err
			}
			if n <= 0 || n > 64 {
				return nil, fmt.Errorf("ir: buffer array %s size %d out of range (1..64)", bp.Name, n)
			}
			sizes[i] = n
		}
	}
	m.opts.Bounds = info.ResolveBounds(opts.Bounds, opts.T, opts.Params)
	if m.opts.SymbolicT {
		m.tvar = b.Var(m.prefix+"!T", term.Int)
	}
	m.ctx = &buffer.Ctx{
		B:      b,
		Assume: func(t *term.Term) { m.assumes = append(m.assumes, t) },
		Prefix: m.prefix,
	}

	cfg := buffer.Config{
		Cap:        m.opts.BufferCap,
		NumFields:  len(info.Prog.Fields),
		NumClasses: m.opts.NumClasses,
		MaxBytes:   m.opts.MaxBytes,
		Live:       liveSlots(info),
	}
	outCfg := cfg
	outCfg.Cap = m.opts.OutBufferCap
	for i, bp := range info.Prog.Params {
		n := sizes[i]
		c := cfg
		if bp.Dir == ast.DirOut {
			c = outCfg
		}
		var instances []string
		for i := int64(0); i < n; i++ {
			name := bp.Name
			if bp.Size != nil {
				name = fmt.Sprintf("%s[%d]", bp.Name, i)
			}
			instances = append(instances, name)
			m.bufNames = append(m.bufNames, name)
			m.bufs[name] = m.opts.Model.Empty(m.ctx, c)
			if bp.Dir == ast.DirIn {
				m.inputNames = append(m.inputNames, name)
			} else {
				m.outputNames = append(m.outputNames, name)
			}
		}
		m.bufInstances[bp.Name] = instances
	}

	// Initialize variables.
	for _, d := range info.Prog.Decls {
		if err := m.initVar(d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// trackAllSlots makes every machine track all slot state: the reference
// the live-state encoding is tested against.
var trackAllSlots bool

// liveSlots returns the slot state the program can read: a field some
// filter names, and the sizes when some backlog-b or move-b reads them.
// Arrivals keep their own field and size variables, so the decoder reads
// no slot state.
func liveSlots(info *typecheck.Info) *buffer.Live {
	if trackAllSlots {
		return nil
	}
	live := &buffer.Live{Fields: make([]bool, len(info.Prog.Fields))}
	ast.WalkExprs(info.Prog.Body, func(e ast.Expr) {
		switch n := e.(type) {
		case *ast.Filter:
			if f, ok := info.FieldIndex[n.Field]; ok {
				live.Fields[f] = true
			}
		case *ast.Backlog:
			live.Bytes = live.Bytes || n.Bytes
		}
	})
	ast.Walk(info.Prog.Body, func(s ast.Stmt) {
		if mv, ok := s.(*ast.Move); ok {
			live.Bytes = live.Bytes || mv.Bytes
		}
	})
	return live
}

func (m *Machine) initVar(d *ast.VarDecl) error {
	switch d.Type.Kind {
	case ast.TList:
		l := &listVal{size: m.b.IntConst(0)}
		for i := 0; i < m.opts.ListCap; i++ {
			l.elems = append(l.elems, m.b.IntConst(0))
		}
		m.lists[d.Name] = l
		return nil
	case ast.TInt, ast.TBool:
		var init *term.Term
		if d.Type.Kind == ast.TBool {
			init = m.b.False()
		} else {
			init = m.b.IntConst(0)
		}
		if d.Init != nil {
			// Globals' initializers are evaluated once, before step 0, over
			// constants only.
			v, err := m.fold(d.Init, nil)
			if err != nil {
				return err
			}
			if d.Type.Kind == ast.TBool {
				init = m.b.BoolConst(v != 0)
			} else {
				init = m.b.IntConst(v)
			}
		}
		if d.Type.IsArray() {
			n, err := m.fold(d.Type.Size, nil)
			if err != nil {
				return err
			}
			if n <= 0 || n > 256 {
				return &Error{pos(d.NamePos), fmt.Sprintf("array %s size %d out of range (1..256)", d.Name, n)}
			}
			m.arraySize[d.Name] = n
			for i := int64(0); i < n; i++ {
				m.vars[fmt.Sprintf("%s[%d]", d.Name, i)] = init
			}
			return nil
		}
		m.vars[d.Name] = init
		return nil
	}
	return &Error{pos(d.NamePos), "unsupported declaration type"}
}

// Buffers returns the machine's buffer states (live references).
func (m *Machine) Buffers() map[string]buffer.State { return m.bufs }

// BufferNames returns instance names in declaration order.
func (m *Machine) BufferNames() []string { return m.bufNames }

// InputNames returns input buffer instance names.
func (m *Machine) InputNames() []string { return m.inputNames }

// OutputNames returns output buffer instance names.
func (m *Machine) OutputNames() []string { return m.outputNames }

// Ctx exposes the buffer context (for composition drivers).
func (m *Machine) Ctx() *buffer.Ctx { return m.ctx }

// TVar returns the symbolic horizon variable when the machine was built
// with Options.SymbolicT, nil otherwise. Callers constrain it per query
// (e.g. Check assuming TVar == k) rather than asserting it permanently, so
// one encoding answers every horizon.
func (m *Machine) TVar() *term.Term { return m.tvar }

// SetBuffer replaces a buffer instance's state (transition-system use).
func (m *Machine) SetBuffer(name string, st buffer.State) { m.bufs[name] = st }

// SetVar replaces a scalar variable's value (transition-system use).
func (m *Machine) SetVar(name string, v *term.Term) { m.vars[name] = v }

// Var reads a scalar variable.
func (m *Machine) Var(name string) *term.Term { return m.vars[name] }

// VarNames returns all scalar state names, sorted.
func (m *Machine) VarNames() []string { return sortedNames(m.vars) }

// List returns a list's slots and size (transition-system use).
func (m *Machine) List(name string) ([]*term.Term, *term.Term) {
	l := m.lists[name]
	return l.elems, l.size
}

// SetList replaces a list's contents.
func (m *Machine) SetList(name string, elems []*term.Term, size *term.Term) {
	m.lists[name] = &listVal{elems: elems, size: size}
}

// ListNames returns declared list names, sorted.
func (m *Machine) ListNames() []string { return sortedNames(m.lists) }

// ErrStepInterrupted is what every step after a step that stopped
// part-way returns, whether a cancellation or a compile error stopped it.
// That step had already injected its arrivals and run part of the body,
// so the buffers, assumes and asserts hold half a step and the machine
// can never run another.
var ErrStepInterrupted = errors.New("ir: machine stopped part-way through a step")

// Interrupted reports whether a step stopped part-way, leaving the
// machine unable to run further steps.
func (m *Machine) Interrupted() bool { return m.broken != nil }

// runStep executes time step t: symbolic arrivals flush into the input
// buffers, then the program body runs once, stopping at the next
// statement once ctx is cancelled. After a step fails, the machine is
// left half-way through it and every later step fails too.
func (m *Machine) runStep(ctx context.Context, t int) error {
	if m.broken != nil {
		return m.broken
	}
	m.step = t
	m.loopWork = 1
	m.curT = m.b.IntConst(int64(t))
	m.guard = m.b.True()
	if !m.opts.NoArrivals {
		m.InjectArrivalsInto(t, m.inputNames)
	}
	// Reset locals to their zero values at the start of every step (§3:
	// local scope is a single time step).
	for _, d := range m.info.Locals {
		zero := m.b.IntConst(0)
		if d.Type.Kind == ast.TBool {
			var zb *term.Term = m.b.False()
			if d.Type.IsArray() {
				for i := int64(0); i < m.arraySize[d.Name]; i++ {
					m.vars[fmt.Sprintf("%s[%d]", d.Name, i)] = zb
				}
			} else {
				m.vars[d.Name] = zb
			}
			continue
		}
		if d.Type.IsArray() {
			for i := int64(0); i < m.arraySize[d.Name]; i++ {
				m.vars[fmt.Sprintf("%s[%d]", d.Name, i)] = zero
			}
		} else {
			m.vars[d.Name] = zero
		}
	}
	if err := m.execStmts(ctx, m.info.Prog.Body, nil); err != nil {
		m.broken = fmt.Errorf("%w (step %d: %w)", ErrStepInterrupted, t, err)
		return err
	}
	m.snapshot()
	return nil
}

// InjectArrivalsInto creates symbolic input packets for step t on the given
// input buffer instances only. The composition runtime uses it to give
// externally-facing inputs symbolic traffic while connected inputs receive
// only flushed packets.
func (m *Machine) InjectArrivalsInto(t int, names []string) {
	b := m.b
	for _, name := range names {
		var prevValid *term.Term
		for k := 0; k < m.opts.ArrivalsPerStep; k++ {
			base := fmt.Sprintf("%s!in!%s!t%d!k%d", m.prefix, name, t, k)
			valid := b.Var(base+".valid", term.Bool)
			fields := make([]*term.Term, len(m.info.Prog.Fields))
			for f := range fields {
				fv := b.Var(fmt.Sprintf("%s.f%d", base, f), term.Int)
				m.assumes = append(m.assumes,
					b.Le(b.IntConst(0), fv),
					b.Lt(fv, b.IntConst(int64(m.opts.NumClasses))))
				fields[f] = fv
			}
			var bytes *term.Term
			if m.opts.MaxBytes > 1 {
				bytes = b.Var(base+".bytes", term.Int)
				m.assumes = append(m.assumes,
					b.Le(b.IntConst(1), bytes),
					b.Le(bytes, b.IntConst(int64(m.opts.MaxBytes))))
			} else {
				bytes = b.IntConst(1)
			}
			if prevValid != nil {
				// Arrival slots fill front-to-back (symmetry breaking).
				m.assumes = append(m.assumes, b.Implies(valid, prevValid))
			}
			prevValid = valid
			m.bufs[name].Arrive(m.ctx, buffer.Packet{Fields: fields, Bytes: bytes}, valid)
			m.arrivals = append(m.arrivals, Arrival{
				Step: t, Buffer: name, Slot: k,
				Valid: valid, Fields: fields, Bytes: bytes,
			})
		}
	}
}

func (m *Machine) snapshot() {
	snap := StepSnapshot{
		Vars:    make(map[string]*term.Term, len(m.vars)),
		Buffers: make(map[string]buffer.State, len(m.bufs)),
	}
	for k, v := range m.vars {
		snap.Vars[k] = v
	}
	for k, v := range m.bufs {
		snap.Buffers[k] = v.Clone()
	}
	m.steps = append(m.steps, snap)
}

// Result packages the accumulated encoding.
func (m *Machine) Result() *Compiled {
	return &Compiled{
		Info:        m.info,
		Opts:        m.opts,
		B:           m.b,
		Assumes:     m.assumes,
		Asserts:     m.asserts,
		Arrivals:    m.arrivals,
		Havocs:      m.havocs,
		Steps:       m.steps,
		InputNames:  m.inputNames,
		OutputNames: m.outputNames,
	}
}

// Assumes returns the semantic assumptions collected so far.
func (m *Machine) Assumes() []*term.Term { return m.assumes }

// Asserts returns the assert instances collected so far.
func (m *Machine) Asserts() []AssertInst { return m.asserts }

// ----- statement execution (guard-threaded symbolic execution) -----

// loopEnv binds unrolled loop variables to concrete values.
type loopEnv map[string]int64

// maxLoopTrips caps the trips of one loop; typecheck.MaxLoopWork caps
// the body runs of a loop nest in one step, the product of the enclosing
// loops' trip counts.
const maxLoopTrips = 1024

func (m *Machine) execStmts(ctx context.Context, stmts []ast.Stmt, le loopEnv) error {
	for _, s := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.execStmt(ctx, s, le); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(ctx context.Context, s ast.Stmt, le loopEnv) error {
	switch n := s.(type) {
	case *ast.Assign:
		return m.execAssign(n, le)
	case *ast.PushBack:
		return m.execPushBack(n, le)
	case *ast.Move:
		return m.execMove(n, le)
	case *ast.If:
		cond, err := m.evalBool(n.Cond, le)
		if err != nil {
			return err
		}
		saved := m.guard
		m.guard = m.b.And(saved, cond)
		if err := m.execStmts(ctx, n.Then, le); err != nil {
			return err
		}
		m.guard = m.b.And(saved, m.b.Not(cond))
		if err := m.execStmts(ctx, n.Else, le); err != nil {
			return err
		}
		m.guard = saved
		return nil
	case *ast.For:
		lo, err := m.fold(n.Lo, le)
		if err != nil {
			return err
		}
		hi, err := m.fold(n.Hi, le)
		if err != nil {
			return err
		}
		if hi <= lo {
			return nil
		}
		trips := hi - lo
		if trips < 0 || trips > maxLoopTrips { // trips < 0: hi - lo overflowed
			return &Error{pos(n.KwPos), fmt.Sprintf("loop unrolls %d times (max %d)", uint64(hi)-uint64(lo), maxLoopTrips)}
		}
		outer := m.loopWork
		if outer*trips > typecheck.MaxLoopWork {
			return &Error{pos(n.KwPos), fmt.Sprintf("loop nest unrolls its body %d times in one step (max %d)", outer*trips, typecheck.MaxLoopWork)}
		}
		m.loopWork = outer * trips
		defer func() { m.loopWork = outer }()
		for i := lo; i < hi; i++ {
			inner := loopEnv{}
			for k, v := range le {
				inner[k] = v
			}
			inner[n.Var] = i
			if err := m.execStmts(ctx, n.Body, inner); err != nil {
				return err
			}
		}
		return nil
	case *ast.Assert:
		cond, err := m.evalBool(n.Cond, le)
		if err != nil {
			return err
		}
		m.asserts = append(m.asserts, AssertInst{
			Step: m.step, Guard: m.guard, Cond: cond, Pos: pos(n.KwPos),
		})
		return nil
	case *ast.Assume:
		cond, err := m.evalBool(n.Cond, le)
		if err != nil {
			return err
		}
		m.assumes = append(m.assumes, m.b.Implies(m.guard, cond))
		return nil
	case *ast.Havoc:
		old, ok := m.vars[n.Target.Name]
		if !ok {
			return &Error{pos(n.KwPos), fmt.Sprintf("unknown variable %q", n.Target.Name)}
		}
		m.havocSeq++
		var fresh *term.Term
		if old.Sort() == term.Bool {
			fresh = m.b.Var(fmt.Sprintf("%s!havoc!%s!t%d#%d", m.prefix, n.Target.Name, m.step, m.havocSeq), term.Bool)
		} else {
			fresh = m.b.Var(fmt.Sprintf("%s!havoc!%s!t%d#%d", m.prefix, n.Target.Name, m.step, m.havocSeq), term.Int)
		}
		m.havocs = append(m.havocs, HavocVar{Step: m.step, Name: n.Target.Name, Var: fresh})
		m.vars[n.Target.Name] = m.b.Ite(m.guard, fresh, old)
		return nil
	case *ast.VarDecl:
		return &Error{pos(n.NamePos), "nested declarations are not supported"}
	}
	return &Error{Pos{}, fmt.Sprintf("unhandled statement %T", s)}
}

func (m *Machine) execAssign(n *ast.Assign, le loopEnv) error {
	// pop_front RHS mutates the list as a side effect.
	if pf, ok := n.RHS.(*ast.PopFront); ok {
		lname, err := m.listName(pf.List)
		if err != nil {
			return err
		}
		head, err := m.popFront(lname)
		if err != nil {
			return err
		}
		return m.assignTo(n.LHS, head, le)
	}
	rhs, err := m.eval(n.RHS, le)
	if err != nil {
		return err
	}
	return m.assignTo(n.LHS, rhs, le)
}

// assignTo performs a guarded assignment to an ident or array element.
func (m *Machine) assignTo(lhs ast.Expr, val *term.Term, le loopEnv) error {
	switch tgt := lhs.(type) {
	case *ast.Ident:
		old, ok := m.vars[tgt.Name]
		if !ok {
			return &Error{pos(tgt.IdPos), fmt.Sprintf("unknown variable %q", tgt.Name)}
		}
		m.vars[tgt.Name] = m.b.Ite(m.guard, val, old)
		return nil
	case *ast.Index:
		base := tgt.X.(*ast.Ident)
		size, ok := m.arraySize[base.Name]
		if !ok {
			return &Error{pos(base.IdPos), fmt.Sprintf("%q is not an array", base.Name)}
		}
		idx, err := m.eval(tgt.Idx, le)
		if err != nil {
			return err
		}
		// Flattened array write: guarded update of every candidate slot
		// (out-of-range indices write nowhere).
		for i := int64(0); i < size; i++ {
			slot := fmt.Sprintf("%s[%d]", base.Name, i)
			hit := m.b.And(m.guard, m.b.Eq(idx, m.b.IntConst(i)))
			m.vars[slot] = m.b.Ite(hit, val, m.vars[slot])
		}
		return nil
	}
	return &Error{pos(lhs.Pos()), "invalid assignment target"}
}

func (m *Machine) execPushBack(n *ast.PushBack, le loopEnv) error {
	lname, err := m.listName(n.List)
	if err != nil {
		return err
	}
	arg, err := m.eval(n.Arg, le)
	if err != nil {
		return err
	}
	l := m.lists[lname]
	b := m.b
	cap := int64(len(l.elems))
	fits := b.Lt(l.size, b.IntConst(cap))
	place := b.And(m.guard, fits)
	for j := int64(0); j < cap; j++ {
		here := b.And(place, b.Eq(l.size, b.IntConst(j)))
		l.elems[j] = b.Ite(here, arg, l.elems[j])
	}
	l.size = b.Add(l.size, b.Ite(place, b.IntConst(1), b.IntConst(0)))
	return nil
}

// popFront removes and returns the head under the current guard. Popping an
// empty list yields 0 and leaves the list empty (programs are expected to
// check empty() first, as Figure 4 does).
func (m *Machine) popFront(lname string) (*term.Term, error) {
	l := m.lists[lname]
	b := m.b
	nonEmpty := b.Lt(b.IntConst(0), l.size)
	do := b.And(m.guard, nonEmpty)
	head := b.Ite(nonEmpty, l.elems[0], b.IntConst(0))
	for j := 0; j < len(l.elems)-1; j++ {
		l.elems[j] = b.Ite(do, l.elems[j+1], l.elems[j])
	}
	l.size = b.Sub(l.size, b.Ite(do, b.IntConst(1), b.IntConst(0)))
	return head, nil
}

func (m *Machine) listName(e ast.Expr) (string, error) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", &Error{pos(e.Pos()), "expected a list variable"}
	}
	if _, ok := m.lists[id.Name]; !ok {
		return "", &Error{pos(id.IdPos), fmt.Sprintf("unknown list %q", id.Name)}
	}
	return id.Name, nil
}

func (m *Machine) execMove(n *ast.Move, le loopEnv) error {
	src, err := m.evalBufRef(n.Src, le)
	if err != nil {
		return err
	}
	dst, err := m.evalBufRef(n.Dst, le)
	if err != nil {
		return err
	}
	if len(dst.filters) > 0 {
		return &Error{pos(n.Dst.Pos()), "move destination cannot be filtered"}
	}
	count, err := m.eval(n.Count, le)
	if err != nil {
		return err
	}
	var filt *buffer.Filter
	if len(src.filters) == 1 {
		filt = &src.filters[0]
	} else if len(src.filters) > 1 {
		return &Error{pos(n.Src.Pos()), "chained filters on move sources are not supported (compose into one)"}
	}
	for _, sa := range src.arms {
		for _, da := range dst.arms {
			g := m.b.And(m.guard, sa.cond, da.cond)
			if g == m.b.False() {
				continue
			}
			if sa.name == da.name {
				// A buffer moved onto itself is a no-op (can only occur
				// through symbolic indices selecting the same instance).
				continue
			}
			var err error
			if n.Bytes {
				err = m.bufs[sa.name].MoveB(m.ctx, m.bufs[da.name], count, filt, g)
			} else {
				err = m.bufs[sa.name].MoveP(m.ctx, m.bufs[da.name], count, filt, g)
			}
			if err != nil {
				return &Error{pos(n.KwPos), err.Error()}
			}
		}
	}
	return nil
}
