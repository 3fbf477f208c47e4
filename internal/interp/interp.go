// Package interp is a concrete interpreter for Buffy programs: the same
// one-step semantics the ir package encodes symbolically, executed over
// ordinary Go values. Its two jobs are (1) plain simulation of Buffy models
// on concrete traffic and (2) differential validation of the solver
// pipeline — every counterexample or witness trace a back-end produces is
// replayed here and must reproduce the same monitor values, backlogs and
// assert outcomes. The semantics (arrival flushing, local resets,
// out-of-range indexing, empty pops, capacity drops, FIFO move order,
// integer wrap-around at the solver width) deliberately mirror ir's
// encodings case by case.
package interp

import (
	"fmt"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
)

// Packet is a concrete packet.
type Packet struct {
	Fields []int64
	Bytes  int64
}

// Buffer is a concrete FIFO packet buffer with capacity and drop counting.
type Buffer struct {
	Cap     int
	Pkts    []Packet
	Dropped int64
}

// BacklogP returns the packet count.
func (b *Buffer) BacklogP() int64 { return int64(len(b.Pkts)) }

// BacklogB returns the byte count.
func (b *Buffer) BacklogB() int64 {
	var n int64
	for _, p := range b.Pkts {
		n += p.Bytes
	}
	return n
}

// Arrive appends a packet, dropping it if the buffer is full.
func (b *Buffer) Arrive(p Packet) {
	if len(b.Pkts) >= b.Cap {
		b.Dropped++
		return
	}
	b.Pkts = append(b.Pkts, p)
}

// Options configures an interpreter run. Zero fields take ir's defaults.
type Options struct {
	Params map[string]int64
	T      int
	// Bounds size buffers and lists (BufferCap, OutBufferCap, ListCap;
	// ArrivalsPerStep only through OutBufferCap's default) with the
	// defaults of typecheck.ResolveBounds.
	typecheck.Bounds
	Width int // integer wrap width; default 12 (bitblast.DefaultWidth)
}

// AssertFailure records a failed assert during execution.
type AssertFailure struct {
	Step int
	Stmt *ast.Assert
}

func (a AssertFailure) String() string {
	return fmt.Sprintf("assert failed at step %d (%v)", a.Step, a.Stmt.Pos())
}

// ErrAssumeViolated is returned by Step when an assume() evaluates to
// false: the supplied inputs are outside the modeled workload.
type ErrAssumeViolated struct {
	Step int
	Stmt *ast.Assume
}

func (e *ErrAssumeViolated) Error() string {
	return fmt.Sprintf("interp: assume violated at step %d (%v)", e.Step, e.Stmt.Pos())
}

// HavocSource supplies concrete values for havoc statements, in execution
// order within each step.
type HavocSource func(step int, name string) int64

// Machine executes one Buffy program concretely.
type Machine struct {
	info *typecheck.Info
	opts Options

	vars      map[string]int64 // bools stored as 0/1
	boolVar   map[string]bool  // name -> is boolean
	arraySize map[string]int64
	lists     map[string][]int64
	bufs      map[string]*Buffer
	bufOrder  []string
	bufInsts  map[string][]string
	inputs    []string
	outputs   []string

	step     int
	failures []AssertFailure
	havoc    HavocSource
}

// New builds a machine with empty initial state.
func New(info *typecheck.Info, opts Options) (*Machine, error) {
	opts.Bounds = info.ResolveBounds(opts.Bounds, opts.T, opts.Params)
	opts.T = max(opts.T, 1)
	if opts.Width <= 0 {
		opts.Width = 12
	}
	m := &Machine{
		info:      info,
		opts:      opts,
		vars:      make(map[string]int64),
		boolVar:   make(map[string]bool),
		arraySize: make(map[string]int64),
		lists:     make(map[string][]int64),
		bufs:      make(map[string]*Buffer),
		bufInsts:  make(map[string][]string),
	}
	for _, p := range info.Params {
		if _, ok := opts.Params[p]; !ok {
			return nil, fmt.Errorf("interp: missing compile-time parameter %q", p)
		}
	}
	for _, bp := range info.Prog.Params {
		n := int64(1)
		if bp.Size != nil {
			var err error
			if n, err = m.fold(bp.Size, nil); err != nil {
				return nil, err
			}
		}
		cap := opts.BufferCap
		if bp.Dir == ast.DirOut {
			cap = opts.OutBufferCap
		}
		var insts []string
		for i := int64(0); i < n; i++ {
			name := bp.Name
			if bp.Size != nil {
				name = fmt.Sprintf("%s[%d]", bp.Name, i)
			}
			insts = append(insts, name)
			m.bufOrder = append(m.bufOrder, name)
			m.bufs[name] = &Buffer{Cap: cap}
			if bp.Dir == ast.DirIn {
				m.inputs = append(m.inputs, name)
			} else {
				m.outputs = append(m.outputs, name)
			}
		}
		m.bufInsts[bp.Name] = insts
	}
	for _, d := range info.Prog.Decls {
		if err := m.initVar(d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *Machine) initVar(d *ast.VarDecl) error {
	if d.Type.Kind == ast.TList {
		m.lists[d.Name] = nil
		return nil
	}
	var init int64
	if d.Init != nil {
		v, err := m.fold(d.Init, nil)
		if err != nil {
			return err
		}
		init = v
	}
	isBool := d.Type.Kind == ast.TBool
	if d.Type.IsArray() {
		n, err := m.fold(d.Type.Size, nil)
		if err != nil {
			return err
		}
		m.arraySize[d.Name] = n
		for i := int64(0); i < n; i++ {
			slot := fmt.Sprintf("%s[%d]", d.Name, i)
			m.vars[slot] = init
			m.boolVar[slot] = isBool
		}
		return nil
	}
	m.vars[d.Name] = init
	m.boolVar[d.Name] = isBool
	return nil
}

// Buffer returns the named buffer instance (e.g. "ibs[0]").
func (m *Machine) Buffer(name string) *Buffer { return m.bufs[name] }

// Inputs returns the input buffer instance names.
func (m *Machine) Inputs() []string { return m.inputs }

// Outputs returns the output buffer instance names.
func (m *Machine) Outputs() []string { return m.outputs }

// Var reads a scalar variable (bools as 0/1).
func (m *Machine) Var(name string) int64 { return m.vars[name] }

// Failures returns the assert failures recorded so far.
func (m *Machine) Failures() []AssertFailure { return m.failures }

// SetHavocSource installs the supplier of havoc values; without one,
// havocs evaluate to 0.
func (m *Machine) SetHavocSource(h HavocSource) { m.havoc = h }

func (m *Machine) wrap(v int64) int64 {
	w := uint(m.opts.Width)
	mask := int64(1)<<w - 1
	v &= mask
	if v&(1<<(w-1)) != 0 {
		v -= 1 << w
	}
	return v
}

// Step executes one time step. Arriving packets must already have been
// placed into the input buffers by the caller (use Arrive). A false
// assume() aborts the step with ErrAssumeViolated; failed asserts are
// recorded, not fatal.
func (m *Machine) Step(t int) error {
	m.step = t
	// Reset locals.
	for _, d := range m.info.Locals {
		if d.Type.IsArray() {
			for i := int64(0); i < m.arraySize[d.Name]; i++ {
				m.vars[fmt.Sprintf("%s[%d]", d.Name, i)] = 0
			}
		} else {
			m.vars[d.Name] = 0
		}
	}
	return m.execStmts(m.info.Prog.Body, nil)
}

type loopEnv map[string]int64

func (m *Machine) execStmts(stmts []ast.Stmt, le loopEnv) error {
	for _, s := range stmts {
		if err := m.execStmt(s, le); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(s ast.Stmt, le loopEnv) error {
	switch n := s.(type) {
	case *ast.Assign:
		return m.execAssign(n, le)
	case *ast.PushBack:
		lname := n.List.(*ast.Ident).Name
		v, err := m.eval(n.Arg, le)
		if err != nil {
			return err
		}
		if len(m.lists[lname]) < m.opts.ListCap {
			m.lists[lname] = append(m.lists[lname], v)
		}
		return nil
	case *ast.Move:
		return m.execMove(n, le)
	case *ast.If:
		c, err := m.eval(n.Cond, le)
		if err != nil {
			return err
		}
		if c != 0 {
			return m.execStmts(n.Then, le)
		}
		return m.execStmts(n.Else, le)
	case *ast.For:
		lo, err := m.fold(n.Lo, le)
		if err != nil {
			return err
		}
		hi, err := m.fold(n.Hi, le)
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			inner := loopEnv{}
			for k, v := range le {
				inner[k] = v
			}
			inner[n.Var] = i
			if err := m.execStmts(n.Body, inner); err != nil {
				return err
			}
		}
		return nil
	case *ast.Assert:
		c, err := m.eval(n.Cond, le)
		if err != nil {
			return err
		}
		if c == 0 {
			m.failures = append(m.failures, AssertFailure{Step: m.step, Stmt: n})
		}
		return nil
	case *ast.Assume:
		c, err := m.eval(n.Cond, le)
		if err != nil {
			return err
		}
		if c == 0 {
			return &ErrAssumeViolated{Step: m.step, Stmt: n}
		}
		return nil
	case *ast.Havoc:
		var v int64
		if m.havoc != nil {
			v = m.havoc(m.step, n.Target.Name)
		}
		if m.boolVar[n.Target.Name] && v != 0 {
			v = 1
		}
		m.vars[n.Target.Name] = m.wrap(v)
		return nil
	}
	return fmt.Errorf("interp: unhandled statement %T", s)
}

func (m *Machine) execAssign(n *ast.Assign, le loopEnv) error {
	var val int64
	if pf, ok := n.RHS.(*ast.PopFront); ok {
		lname := pf.List.(*ast.Ident).Name
		l := m.lists[lname]
		if len(l) > 0 {
			val = l[0]
			m.lists[lname] = l[1:]
		} else {
			val = 0
		}
	} else {
		v, err := m.eval(n.RHS, le)
		if err != nil {
			return err
		}
		val = v
	}
	switch tgt := n.LHS.(type) {
	case *ast.Ident:
		if m.boolVar[tgt.Name] && val != 0 {
			val = 1
		}
		m.vars[tgt.Name] = val
		return nil
	case *ast.Index:
		base := tgt.X.(*ast.Ident).Name
		idx, err := m.eval(tgt.Idx, le)
		if err != nil {
			return err
		}
		if idx >= 0 && idx < m.arraySize[base] {
			m.vars[fmt.Sprintf("%s[%d]", base, idx)] = val
		}
		return nil
	}
	return fmt.Errorf("interp: bad assignment target")
}

// resolveBuf resolves a buffer expression to an instance (or nil when a
// run-time index is out of range — the "null buffer") plus filters.
func (m *Machine) resolveBuf(e ast.Expr, le loopEnv) (*Buffer, []filterSpec, error) {
	switch n := e.(type) {
	case *ast.Ident:
		insts := m.bufInsts[n.Name]
		if len(insts) == 0 {
			return nil, nil, fmt.Errorf("interp: %q is not a buffer", n.Name)
		}
		return m.bufs[insts[0]], nil, nil
	case *ast.Index:
		base := n.X.(*ast.Ident).Name
		insts := m.bufInsts[base]
		idx, err := m.eval(n.Idx, le)
		if err != nil {
			return nil, nil, err
		}
		if idx < 0 || idx >= int64(len(insts)) {
			return nil, nil, nil // null buffer
		}
		return m.bufs[insts[idx]], nil, nil
	case *ast.Filter:
		buf, fs, err := m.resolveBuf(n.Buf, le)
		if err != nil {
			return nil, nil, err
		}
		v, err := m.eval(n.Value, le)
		if err != nil {
			return nil, nil, err
		}
		fidx := m.info.FieldIndex[n.Field]
		return buf, append(fs, filterSpec{field: fidx, value: v}), nil
	}
	return nil, nil, fmt.Errorf("interp: expected buffer expression")
}

type filterSpec struct {
	field int
	value int64
}

func matches(p Packet, fs []filterSpec) bool {
	for _, f := range fs {
		if f.field >= len(p.Fields) || p.Fields[f.field] != f.value {
			return false
		}
	}
	return true
}

func (m *Machine) execMove(n *ast.Move, le loopEnv) error {
	src, fs, err := m.resolveBuf(n.Src, le)
	if err != nil {
		return err
	}
	dst, dfs, err := m.resolveBuf(n.Dst, le)
	if err != nil {
		return err
	}
	if len(dfs) > 0 {
		return fmt.Errorf("interp: move destination cannot be filtered")
	}
	count, err := m.eval(n.Count, le)
	if err != nil {
		return err
	}
	if src == nil || dst == nil || src == dst {
		return nil // null buffer or self-move: no-op
	}
	MovePackets(src, dst, count, fs, n.Bytes)
	return nil
}

// MovePackets implements the concrete move semantics shared with the
// symbolic encoding: take the first matching packets (bounded by count
// packets, or by count bytes as a maximal blocked prefix), preserve order,
// drop past dst capacity.
func MovePackets(src, dst *Buffer, count int64, fs []filterSpec, bytes bool) {
	var kept []Packet
	budget := count
	for _, p := range src.Pkts {
		take := false
		if matches(p, fs) {
			if bytes {
				if p.Bytes <= budget {
					take = true
					budget -= p.Bytes
				} else {
					budget = -1 // head blocks: nothing further moves
				}
			} else if budget > 0 {
				take = true
				budget--
			}
		}
		if take {
			if len(dst.Pkts) < dst.Cap {
				dst.Pkts = append(dst.Pkts, p)
			} else {
				dst.Dropped++
			}
		} else {
			kept = append(kept, p)
		}
	}
	src.Pkts = kept
}

// FlushInto moves everything from src to dst (composition semantics).
func FlushInto(src, dst *Buffer) {
	MovePackets(src, dst, src.BacklogP(), nil, false)
}
