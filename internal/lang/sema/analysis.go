package sema

// The interval abstract-interpretation pass: execute the program's T
// unrolled steps over the interval domain, mirroring the ir/buffer
// semantics (arrivals clamp at capacity, move-p takes max(0, min(n,
// backlog)) out of the source and drops what the destination cannot
// accept, locals zero at each step, globals and monitors persist).
// Everything nondeterministic — arrivals, havocs, unbound parameters —
// starts at top, so the abstract run over-approximates every concrete
// execution the solver could exhibit.

import (
	"fmt"
	"strings"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/token"
	"buffy/internal/lang/typecheck"
)

// maxUnrollIters bounds concrete unrolling of a single for loop; larger
// (or unknown) trip counts fall back to a widening fixpoint.
const maxUnrollIters = 256

// maxFixIters bounds the join rounds of a widened loop's fixpoint, and
// maxWidenIters the widening rounds after them, before the state is
// forced to top.
const (
	maxFixIters   = 12
	maxWidenIters = 4
)

// MaxSteps caps the interval pass's work over the whole horizon: one step
// per statement executed, loop iteration, expression node evaluated,
// array or buffer instance addressed and state entry copied or reset. A
// run that reaches it stops and concludes nothing, as if the pass had
// been skipped.
const MaxSteps = 1 << 22

// absState is one abstract program state.
type absState struct {
	vars       map[string]ival // scalars; array elems "name[i]"; summaries "name[*]"
	bufs       map[string]ival // buffer backlogs (packets), same key scheme
	lists      map[string]ival // list sizes
	infeasible bool
}

func (s *absState) clone() *absState {
	c := &absState{
		vars:       make(map[string]ival, len(s.vars)),
		bufs:       make(map[string]ival, len(s.bufs)),
		lists:      make(map[string]ival, len(s.lists)),
		infeasible: s.infeasible,
	}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	for k, v := range s.bufs {
		c.bufs[k] = v
	}
	for k, v := range s.lists {
		c.lists[k] = v
	}
	return c
}

// absorb joins b into s in place and reports whether s changed. With a
// non-nil top, a key that would change jumps to its value in top (its
// loosest value) instead, so it can change at most once more. s must be
// feasible; an infeasible b contributes nothing.
func (s *absState) absorb(b, top *absState) bool {
	if b.infeasible {
		return false
	}
	changed := false
	joinMap := func(dst, src, tops map[string]ival) {
		for k, v := range src {
			old, ok := dst[k]
			j := join(old, v)
			if ok && j == old {
				continue
			}
			if top != nil {
				j = join(j, tops[k])
			}
			dst[k], changed = j, true
		}
	}
	var tv, tb, tl map[string]ival
	if top != nil {
		tv, tb, tl = top.vars, top.bufs, top.lists
	}
	joinMap(s.vars, b.vars, tv)
	joinMap(s.bufs, b.bufs, tb)
	joinMap(s.lists, b.lists, tl)
	return changed
}

// agg aggregates one syntactic site's evaluations across all unrolled
// steps and loop iterations: a finding like "condition always true" must
// hold over every dynamic instance of the site, not just one.
type agg struct{ t, f, u int }

func (a *agg) record(tv tri) {
	switch tv {
	case triTrue:
		a.t++
	case triFalse:
		a.f++
	default:
		a.u++
	}
}

// bufInfo describes one buffer parameter's abstract layout.
type bufInfo struct {
	param *ast.BufferParam
	keys  []string // instance keys, or the one summary key "name[*]"
	cap   int64    // per-instance capacity
	summ  bool     // summarized (size unknown or too large): weak updates only
}

type analyzer struct {
	info *typecheck.Info
	opts Options
	d    dom
	rep  *Report

	bufs     map[string]*bufInfo // by parameter name
	arrSize  map[string]int64    // known var-array sizes by name (-1 = summarized)
	listCap  int64               // -1 when unknown (no upper clamp)
	loopVars map[string]ival

	curT  ival
	depth int // enclosing unknown-branch / widened-loop nesting

	// loopWork is the product of the enclosing loops' body runs: the
	// trip count when unrolled, at most maxFixIters+maxWidenIters+2 when
	// widened. A loop that would take it past typecheck.MaxLoopWork is
	// widened instead of unrolled, and a widened loop that would goes
	// straight to its top post-fixpoint. steps counts the pass's work
	// (see MaxSteps).
	loopWork  int64
	steps     int64
	exhausted bool
	top       *absState // the loosest state, see topOf
	writes    map[*ast.For]*writeKeys

	condAgg    map[token.Pos]*agg
	assertAgg  map[token.Pos]*agg
	negMoveAgg map[token.Pos]*agg
	overflowAt map[token.Pos]bool
	contraAt   map[token.Pos]Severity

	// Per-instance assert outcomes across the whole unrolled horizon.
	// The witness query (smtbe.Witness) asks for an execution where ALL
	// reached assert instances hold and at least one is reached — so a
	// single instance that every execution reaches (depth 0, feasible
	// path) and definitely falsifies rules out every witness.
	assertInstances   int
	assertDefTrue     int
	assertUncondFalse bool
	contradiction     bool
	contradictionStep int
}

// runIntervals drives the abstract execution of all T steps and then
// converts site aggregates into diagnostics. It reports the verdict
// ingredients for Analyze to assemble.
func (a *analyzer) runIntervals() {
	st := a.initialState()
	a.top = a.topOf(st)
	for step := 0; step < a.opts.T && !a.exhausted; step++ {
		a.curT = single(int64(step))
		a.loopWork = 1
		a.stepArrivals(st)
		a.resetLocals(st)
		a.execBlock(a.info.Prog.Body, st)
		if st.infeasible {
			// No execution survives this step's assumptions: the whole
			// query space is empty from here on.
			a.contradiction = true
			a.contradictionStep = step
			break
		}
	}
	if !a.exhausted {
		a.finishDiags()
	}
}

func (a *analyzer) initialState() *absState {
	st := &absState{
		vars:  make(map[string]ival),
		bufs:  make(map[string]ival),
		lists: make(map[string]ival),
	}
	for _, bi := range a.bufs {
		for _, k := range bi.keys {
			st.bufs[k] = single(0)
		}
	}
	decl := func(d *ast.VarDecl) {
		if d.Type.Kind == ast.TList {
			st.lists[d.Name] = single(0)
			return
		}
		init := single(0)
		if d.Init != nil {
			init = a.constIval(d.Init)
		}
		a.forEachVarKey(d, func(key string) { st.vars[key] = init })
	}
	for _, d := range a.info.Globals {
		decl(d)
	}
	for _, d := range a.info.Monitors {
		decl(d)
	}
	for _, d := range a.info.Locals {
		decl(d)
	}
	return st
}

func (a *analyzer) forEachVarKey(d *ast.VarDecl, f func(key string)) {
	if !d.Type.IsArray() {
		f(d.Name)
		return
	}
	n, ok := a.arrSize[d.Name]
	if !ok || n < 0 {
		f(d.Name + "[*]")
		return
	}
	for i := int64(0); i < n; i++ {
		f(fmt.Sprintf("%s[%d]", d.Name, i))
	}
}

// constIval folds an initializer to an interval; an unbound parameter
// yields top.
func (a *analyzer) constIval(e ast.Expr) ival {
	if v, err := a.fold(e); err == nil {
		return a.d.konst(v)
	}
	return a.d.top()
}

// constSize folds a buffer or array size: -1 when it is absent, unknown
// or not positive.
func (a *analyzer) constSize(e ast.Expr) int64 {
	if e == nil {
		return -1
	}
	if v, err := a.fold(e); err == nil && v > 0 {
		return v
	}
	return -1
}

// fold evaluates a compile-time constant. A loop variable is constant
// only while its loop is unrolled; a widened one has no single value.
func (a *analyzer) fold(e ast.Expr) (int64, error) {
	return typecheck.Fold(e, func(name string) (int64, error) {
		if iv, ok := a.loopVars[name]; ok {
			if iv.isConst() {
				return iv.lo, nil
			}
			return 0, fmt.Errorf("loop variable %q is widened", name)
		}
		return typecheck.Scope{Params: a.opts.Params, T: a.opts.T, Step: int(a.curT.lo)}.Lookup(name)
	})
}

// stepArrivals models the symbolic arrivals ir injects at the start of
// each step: every input-buffer instance gains up to ArrivalsPerStep
// packets, clamped at its capacity (arrivals beyond capacity drop).
func (a *analyzer) stepArrivals(st *absState) {
	for _, bi := range a.bufs {
		if bi.param.Dir != ast.DirIn {
			continue
		}
		for _, k := range bi.keys {
			b := st.bufs[k]
			b.hi = minI(b.hi+int64(a.opts.ArrivalsPerStep), bi.cap)
			b.lo = minI(b.lo, b.hi)
			st.bufs[k] = b
		}
	}
}

func (a *analyzer) resetLocals(st *absState) {
	for _, d := range a.info.Locals {
		if d.Type.Kind == ast.TList {
			continue // typecheck forbids local lists
		}
		a.forEachVarKey(d, func(key string) { st.vars[key] = single(0) })
	}
}

func (a *analyzer) execBlock(stmts []ast.Stmt, st *absState) {
	for _, s := range stmts {
		if st.infeasible || !a.spend(1) {
			return
		}
		a.execStmt(s, st)
	}
}

func (a *analyzer) execStmt(s ast.Stmt, st *absState) {
	switch n := s.(type) {
	case *ast.VarDecl:
		// Hoisted by the parser; nothing to execute.
	case *ast.Assign:
		a.execAssign(n, st)
	case *ast.PushBack:
		if name, ok := listName(n.List); ok {
			sz := st.lists[name]
			sz.lo, sz.hi = sz.lo+1, sz.hi+1
			if a.listCap >= 0 {
				sz.lo, sz.hi = minI(sz.lo, a.listCap), minI(sz.hi, a.listCap)
			} else {
				sz = a.d.norm(sz)
			}
			st.lists[name] = sz
		}
	case *ast.Move:
		a.execMove(n, st)
	case *ast.If:
		a.execIf(n, st)
	case *ast.For:
		a.execFor(n, st)
	case *ast.Assert:
		a.execAssert(n, st)
	case *ast.Assume:
		a.execAssume(n, st)
	case *ast.Havoc:
		if sym := a.info.Symbols[n.Target]; sym != nil && sym.Kind == typecheck.SymVar {
			st.vars[n.Target.Name] = a.d.top()
		}
	}
}

func (a *analyzer) execAssign(n *ast.Assign, st *absState) {
	var val ival
	if pf, ok := n.RHS.(*ast.PopFront); ok {
		val = a.d.top() // list element values are not tracked
		if name, ok := listName(pf.List); ok {
			sz := st.lists[name]
			sz.lo, sz.hi = maxI(0, sz.lo-1), maxI(0, sz.hi-1)
			st.lists[name] = sz
		}
	} else {
		val = a.evalExpr(n.RHS, st)
	}
	switch lhs := n.LHS.(type) {
	case *ast.Ident:
		if _, exists := st.vars[lhs.Name]; exists {
			st.vars[lhs.Name] = val
		}
	case *ast.Index:
		base, ok := lhs.X.(*ast.Ident)
		if !ok {
			return
		}
		keys, exact := a.varElemKeys(base.Name, a.evalExpr(lhs.Idx, st))
		for _, k := range keys {
			if exact {
				st.vars[k] = val
			} else {
				st.vars[k] = join(st.vars[k], val) // weak update
			}
		}
	}
}

// varElemKeys resolves an array access to candidate element keys; exact
// reports a single, certainly-addressed element (strong update allowed).
func (a *analyzer) varElemKeys(name string, idx ival) ([]string, bool) {
	n, ok := a.arrSize[name]
	if !ok || n < 0 {
		return []string{name + "[*]"}, false
	}
	lo, hi := maxI(0, idx.lo), minI(n-1, idx.hi)
	if lo > hi {
		return nil, false
	}
	if lo == hi && idx.isConst() {
		return []string{fmt.Sprintf("%s[%d]", name, lo)}, true
	}
	keys := make([]string, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		keys = append(keys, fmt.Sprintf("%s[%d]", name, i))
	}
	a.spend(int64(len(keys)))
	return keys, false
}

// resolveBuf resolves a buffer expression to instance keys. exact means
// exactly one certainly-addressed instance; filtered means the view is a
// filtered sub-buffer (moves from it cannot be bounded below).
func (a *analyzer) resolveBuf(e ast.Expr, st *absState) (bi *bufInfo, keys []string, exact, filtered bool) {
	switch n := e.(type) {
	case *ast.Ident:
		b := a.bufs[n.Name]
		if b == nil {
			return nil, nil, false, false
		}
		if b.param.Size == nil {
			return b, b.keys, true, false
		}
		a.spend(int64(len(b.keys)))
		return b, b.keys, false, false
	case *ast.Index:
		base, ok := n.X.(*ast.Ident)
		if !ok {
			return nil, nil, false, false
		}
		b := a.bufs[base.Name]
		if b == nil {
			return nil, nil, false, false
		}
		if b.summ {
			return b, b.keys, false, false
		}
		idx := a.evalExpr(n.Idx, st)
		size := int64(len(b.keys))
		lo, hi := maxI(0, idx.lo), minI(size-1, idx.hi)
		if lo > hi {
			return b, nil, false, false
		}
		if lo == hi && idx.isConst() {
			return b, []string{b.keys[lo]}, true, false
		}
		a.spend(hi - lo + 1)
		return b, b.keys[lo : hi+1], false, false
	case *ast.Filter:
		b, ks, ex, _ := a.resolveBuf(n.Buf, st)
		return b, ks, ex, true
	}
	return nil, nil, false, false
}

// execMove mirrors buffer.MoveP/MoveB: moved = max(0, min(count,
// src.backlog)) leaves the source; the destination accepts up to its free
// space and drops the rest.
func (a *analyzer) execMove(n *ast.Move, st *absState) {
	cnt := a.evalExpr(n.Count, st)
	if ag := a.siteAgg(a.negMoveAgg, n.KwPos); ag != nil {
		switch {
		case cnt.hi < 0:
			ag.record(triTrue) // count always negative at this eval
		case cnt.lo >= 0:
			ag.record(triFalse)
		default:
			ag.record(triUnknown)
		}
	}

	sbi, srcKeys, srcExact, filtered := a.resolveBuf(n.Src, st)
	dbi, dstKeys, dstExact, _ := a.resolveBuf(n.Dst, st)
	if sbi == nil || dbi == nil || len(srcKeys) == 0 || len(dstKeys) == 0 {
		return
	}

	// The amount taken out of the source, per candidate instance.
	movedFor := func(src ival) ival {
		m := ival{maxI(0, minI(cnt.lo, src.lo)), maxI(0, minI(cnt.hi, src.hi))}
		if filtered {
			m.lo = 0 // the filtered sub-backlog may be empty
		}
		return m
	}

	// Join of all possible moved amounts (for destination updates when
	// the source is ambiguous).
	var movedAny ival
	first := true
	for _, sk := range srcKeys {
		m := movedFor(st.bufs[sk])
		if first {
			movedAny, first = m, false
		} else {
			movedAny = join(movedAny, m)
		}
	}
	if !srcExact {
		movedAny.lo = 0 // any single instance might not be the one moved from
	}

	// Source updates.
	for _, sk := range srcKeys {
		src := st.bufs[sk]
		m := movedFor(src)
		out := meet(ival{src.lo - m.hi, src.hi - m.lo}, ival{0, sbi.cap})
		if srcExact {
			st.bufs[sk] = out
		} else {
			st.bufs[sk] = join(src, out)
		}
	}

	// Destination updates (+ guaranteed-overflow detection).
	for _, dk := range dstKeys {
		dst := st.bufs[dk]
		if dstExact && srcExact && a.depth == 0 && !st.infeasible &&
			dbi.cap < a.d.max && movedAny.lo+dst.lo > dbi.cap {
			a.overflowAt[n.KwPos] = true
		}
		free := ival{maxI(0, dbi.cap-dst.hi), maxI(0, dbi.cap-dst.lo)}
		accepted := ival{minI(movedAny.lo, free.lo), minI(movedAny.hi, free.hi)}
		in := meet(ival{dst.lo + accepted.lo, dst.hi + accepted.hi}, ival{0, dbi.cap})
		if dstExact {
			st.bufs[dk] = in
		} else {
			st.bufs[dk] = join(dst, in)
		}
	}
}

func (a *analyzer) execIf(n *ast.If, st *absState) {
	tv := a.evalExpr(n.Cond, st).truth()
	if ag := a.siteAgg(a.condAgg, n.Cond.Pos()); ag != nil && !st.infeasible {
		ag.record(tv)
	}
	switch tv {
	case triTrue:
		a.execBlock(n.Then, st)
	case triFalse:
		a.execBlock(n.Else, st)
	default:
		// st is overwritten by the join below, so the else branch runs on
		// it and only the then branch needs a copy.
		thenSt := a.fork(st)
		elseSt := st
		a.depth++
		if a.refine(thenSt, n.Cond, true) {
			a.execBlock(n.Then, thenSt)
		} else {
			thenSt.infeasible = true
		}
		if a.refine(elseSt, n.Cond, false) {
			a.execBlock(n.Else, elseSt)
		} else {
			elseSt.infeasible = true
		}
		a.depth--
		if !thenSt.infeasible || elseSt.infeasible {
			thenSt.absorb(elseSt, nil)
			*st = *thenSt
		}
	}
}

func (a *analyzer) execFor(n *ast.For, st *absState) {
	outer := a.loopWork
	defer func() { a.loopWork = outer }()
	lo, errLo := a.fold(n.Lo)
	hi, errHi := a.fold(n.Hi)
	if errLo == nil && errHi == nil {
		if hi <= lo {
			return // zero iterations
		}
		if trips := hi - lo; trips <= maxUnrollIters && outer*trips <= typecheck.MaxLoopWork {
			a.loopWork = outer * trips
			for i := lo; i < hi && a.spend(1); i++ {
				a.loopVars[n.Var] = single(i)
				a.execBlock(n.Body, st)
				if st.infeasible {
					break
				}
			}
			delete(a.loopVars, n.Var)
			return
		}
	}

	// Unknown, oversized or too deeply nested trip count: widening
	// fixpoint. The body is a conditional context (the loop may run zero
	// times for all we know), so findings inside are never
	// "unconditional".
	iv := a.d.top()
	if errLo == nil {
		iv.lo = maxI(iv.lo, lo)
	}
	if errHi == nil {
		iv.hi = minI(iv.hi, hi-1)
	}
	if iv.empty() {
		return
	}
	a.loopVars[n.Var] = iv
	a.depth++
	// Join the body's effect into st for up to maxFixIters+1 rounds, then
	// widen whatever still grows to top for up to maxWidenIters rounds. A
	// state growing even then is forced to top and the body runs once
	// more from there, so every site's findings include a run from a
	// post-fixpoint. No room for the rounds inside typecheck.MaxLoopWork
	// means straight to top.
	runs := int64(maxFixIters + maxWidenIters + 2)
	if outer*runs > typecheck.MaxLoopWork {
		runs = 1
	}
	a.loopWork = outer * runs
	// st is never infeasible here (execBlock skips infeasible states), so
	// each round joins the body's effect into it in place.
	for iter := int64(0); ; iter++ {
		if iter == runs-1 {
			a.forceTop(st, n)
			a.execBlock(n.Body, a.fork(st))
			break
		}
		body := a.fork(st)
		a.execBlock(n.Body, body)
		var widen *absState
		if iter > maxFixIters {
			widen = a.top
		}
		if !st.absorb(body, widen) {
			break
		}
	}
	a.depth--
	delete(a.loopVars, n.Var)
}

// forceTop sets, in place, every key the loop n may write to its top
// value: a post-fixpoint of the loop, since top is absorbing under join
// and the other keys no iteration changes. Each key set counts as a step.
func (a *analyzer) forceTop(st *absState, n *ast.For) {
	w := a.loopWrites(n)
	if !a.spend(int64(len(w.vars) + len(w.bufs) + len(w.lists))) {
		return
	}
	for _, k := range w.vars {
		st.vars[k] = a.top.vars[k]
	}
	for _, k := range w.bufs {
		st.bufs[k] = a.top.bufs[k]
	}
	for _, k := range w.lists {
		st.lists[k] = a.top.lists[k]
	}
}

// writeKeys lists the state keys a loop body may write.
type writeKeys struct{ vars, bufs, lists []string }

// loopWrites returns the keys of every variable, list and buffer the body
// of n may change (assigned, havocked or popped variables, pushed lists,
// both ends of every move), computed once per loop.
func (a *analyzer) loopWrites(n *ast.For) *writeKeys {
	if w, ok := a.writes[n]; ok {
		return w
	}
	names := map[string]bool{}
	name := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.Index:
				e = x.X
				continue
			case *ast.Filter:
				e = x.Buf
				continue
			case *ast.Ident:
				names[x.Name] = true
			}
			return
		}
	}
	ast.Walk(n.Body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Assign:
			name(s.LHS)
			if pf, ok := s.RHS.(*ast.PopFront); ok {
				name(pf.List)
			}
		case *ast.PushBack:
			name(s.List)
		case *ast.Move:
			name(s.Src)
			name(s.Dst)
		case *ast.Havoc:
			name(s.Target)
		}
	})
	keys := func(m map[string]ival) []string {
		var out []string
		for k := range m {
			if base, _, _ := strings.Cut(k, "["); names[base] {
				out = append(out, k)
			}
		}
		return out
	}
	w := &writeKeys{keys(a.top.vars), keys(a.top.bufs), keys(a.top.lists)}
	a.writes[n] = w
	return w
}

// fork copies st for a branch or a loop round, counting each copied
// entry as a step. Past the budget it returns st itself: the run is
// abandoned, so nothing it computes from here on is used.
func (a *analyzer) fork(st *absState) *absState {
	if !a.spend(int64(len(st.vars) + len(st.bufs) + len(st.lists))) {
		return st
	}
	return st.clone()
}

// spend charges n steps of work. Past MaxSteps it marks the run
// exhausted and reports false, and the caller skips the work. Within a
// statement the result can be ignored: the next statement stops the run.
func (a *analyzer) spend(n int64) bool {
	if a.exhausted || a.steps+n > MaxSteps {
		a.exhausted = true
		return false
	}
	a.steps += n
	return true
}

// topOf is the loosest state with st's keys: every variable anywhere in
// its width's range, every buffer and list anywhere between empty and
// its capacity.
func (a *analyzer) topOf(st *absState) *absState {
	t := st.clone()
	for k := range t.vars {
		t.vars[k] = a.d.top()
	}
	for k := range t.bufs {
		t.bufs[k] = ival{0, a.capOfKey(k)}
	}
	listHi := a.d.max
	if a.listCap >= 0 {
		listHi = a.listCap
	}
	for k := range t.lists {
		t.lists[k] = ival{0, listHi}
	}
	return t
}

func (a *analyzer) capOfKey(key string) int64 {
	for _, bi := range a.bufs {
		for _, k := range bi.keys {
			if k == key {
				return bi.cap
			}
		}
	}
	return a.d.max
}

func (a *analyzer) execAssert(n *ast.Assert, st *absState) {
	if st.infeasible {
		return
	}
	tv := a.evalExpr(n.Cond, st).truth()
	if ag := a.siteAgg(a.assertAgg, n.KwPos); ag != nil {
		ag.record(tv)
	}
	a.assertInstances++
	switch tv {
	case triTrue:
		a.assertDefTrue++
	case triFalse:
		// Depth 0 only: outside any unknown-condition fork (and outside
		// widened loops), every execution reaches this instance, so a
		// definitely-false condition here falsifies AssertHolds on every
		// execution. Inside a fork the instance might be avoidable and
		// says nothing about executions taking the other branch.
		if a.depth == 0 {
			a.assertUncondFalse = true
		}
	}
}

func (a *analyzer) execAssume(n *ast.Assume, st *absState) {
	if st.infeasible {
		return
	}
	tv := a.evalExpr(n.Cond, st).truth()
	ok := tv != triFalse && a.refine(st, n.Cond, true)
	if !ok {
		sev := Warn
		if a.depth == 0 {
			sev = Error
		}
		if prev, seen := a.contraAt[n.KwPos]; !seen || sev < prev {
			a.contraAt[n.KwPos] = sev
		}
		st.infeasible = true
	}
}

func (a *analyzer) siteAgg(m map[token.Pos]*agg, pos token.Pos) *agg {
	if !pos.IsValid() {
		return nil
	}
	ag := m[pos]
	if ag == nil {
		ag = &agg{}
		m[pos] = ag
	}
	return ag
}

// ----- expression evaluation -----

func (a *analyzer) evalExpr(e ast.Expr, st *absState) ival {
	a.spend(1)
	switch n := e.(type) {
	case *ast.IntLit:
		return a.d.konst(n.Value)
	case *ast.BoolLit:
		if n.Value {
			return single(1)
		}
		return single(0)
	case *ast.Ident:
		return a.evalIdent(n, st)
	case *ast.Unary:
		x := a.evalExpr(n.X, st)
		if n.Op == ast.OpNot {
			return boolIval(triNot(x.truth()))
		}
		return a.d.neg(x)
	case *ast.Binary:
		return a.evalBinary(n, st)
	case *ast.Index:
		base, ok := n.X.(*ast.Ident)
		if !ok {
			return a.d.top()
		}
		if bi := a.bufs[base.Name]; bi != nil {
			return a.d.top() // raw buffer value: not an integer
		}
		keys, _ := a.varElemKeys(base.Name, a.evalExpr(n.Idx, st))
		if len(keys) == 0 {
			return a.d.top()
		}
		v := st.vars[keys[0]]
		for _, k := range keys[1:] {
			v = join(v, st.vars[k])
		}
		return v
	case *ast.Backlog:
		bi, keys, _, filtered := a.resolveBuf(n.Buf, st)
		if bi == nil || len(keys) == 0 {
			return ival{0, a.d.max}
		}
		b := st.bufs[keys[0]]
		for _, k := range keys[1:] {
			b = join(b, st.bufs[k])
		}
		if filtered {
			b.lo = 0 // the filtered subset can be empty
		}
		if n.Bytes {
			// Packets weigh in [1, MaxBytes] bytes, but arrivals under
			// havoc can weigh less than max — only the range is safe.
			return a.d.norm(ival{b.lo, b.hi * int64(maxI(1, int64(a.opts.MaxBytes)))})
		}
		return b
	case *ast.Filter:
		return a.d.top() // buffer-valued; only meaningful under Backlog
	case *ast.ListQuery:
		name, ok := listName(n.List)
		if !ok {
			return a.d.top()
		}
		sz := st.lists[name]
		switch n.Op {
		case ast.ListSize:
			return sz
		case ast.ListEmpty:
			return boolIval(cmpEq(sz, single(0)))
		case ast.ListHas:
			if sz.hi == 0 {
				return single(0) // empty list has nothing
			}
			return ival{0, 1}
		}
	case *ast.PopFront:
		return a.d.top()
	}
	return a.d.top()
}

func (a *analyzer) evalIdent(n *ast.Ident, st *absState) ival {
	if iv, ok := a.loopVars[n.Name]; ok {
		return iv
	}
	if n.Name == "t" {
		return a.curT
	}
	if n.Name == "T" {
		return a.d.konst(int64(a.opts.T))
	}
	if v, ok := st.vars[n.Name]; ok {
		return v
	}
	if v, ok := st.vars[n.Name+"[*]"]; ok {
		return v
	}
	if v, ok := a.opts.Params[n.Name]; ok {
		return a.d.konst(v)
	}
	return a.d.top()
}

func (a *analyzer) evalBinary(n *ast.Binary, st *absState) ival {
	x := a.evalExpr(n.X, st)
	y := a.evalExpr(n.Y, st)
	switch n.Op {
	case ast.OpAdd:
		return a.d.add(x, y)
	case ast.OpSub:
		return a.d.sub(x, y)
	case ast.OpMul:
		return a.d.mul(x, y)
	case ast.OpDiv:
		return a.d.div(x, y)
	case ast.OpMod:
		return a.d.mod(x, y)
	case ast.OpLt:
		return boolIval(cmpLt(x, y))
	case ast.OpLe:
		return boolIval(cmpLe(x, y))
	case ast.OpGt:
		return boolIval(cmpLt(y, x))
	case ast.OpGe:
		return boolIval(cmpLe(y, x))
	case ast.OpEq:
		return boolIval(cmpEq(x, y))
	case ast.OpNeq:
		return boolIval(triNot(cmpEq(x, y)))
	case ast.OpAnd:
		return boolIval(triAnd(x.truth(), y.truth()))
	case ast.OpOr:
		return boolIval(triOr(x.truth(), y.truth()))
	}
	return a.d.top()
}

// ----- refinement -----

// refine narrows st under the assumption that e evaluates to want.
// It returns false when the constraint is unsatisfiable in st.
func (a *analyzer) refine(st *absState, e ast.Expr, want bool) bool {
	switch n := e.(type) {
	case *ast.BoolLit:
		return n.Value == want
	case *ast.Unary:
		if n.Op == ast.OpNot {
			return a.refine(st, n.X, !want)
		}
	case *ast.Ident:
		if v, ok := st.vars[n.Name]; ok {
			wantIv := single(0)
			if want {
				wantIv = single(1)
			}
			m := meet(v, wantIv)
			if m.empty() {
				return false
			}
			st.vars[n.Name] = m
		}
	case *ast.ListQuery:
		if n.Op == ast.ListEmpty {
			if name, ok := listName(n.List); ok {
				sz := st.lists[name]
				if want {
					sz = meet(sz, single(0))
				} else {
					sz = meet(sz, ival{1, a.d.max})
				}
				if sz.empty() {
					return false
				}
				st.lists[name] = sz
			}
		}
	case *ast.Binary:
		switch n.Op {
		case ast.OpAnd:
			if want {
				return a.refine(st, n.X, true) && a.refine(st, n.Y, true)
			}
		case ast.OpOr:
			if !want {
				return a.refine(st, n.X, false) && a.refine(st, n.Y, false)
			}
		case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe, ast.OpEq, ast.OpNeq:
			return a.refineCmp(st, n, want)
		}
	}
	return true
}

// loc is a refinable location: a scalar variable, a single buffer
// instance's packet backlog, or a list size.
type loc struct {
	kind byte // 'v', 'b', 'l'
	key  string
}

func (a *analyzer) asLoc(e ast.Expr, st *absState) (loc, bool) {
	switch n := e.(type) {
	case *ast.Ident:
		if _, ok := st.vars[n.Name]; ok {
			return loc{'v', n.Name}, true
		}
	case *ast.Backlog:
		if n.Bytes {
			return loc{}, false
		}
		_, keys, exact, filtered := a.resolveBuf(n.Buf, st)
		if exact && !filtered && len(keys) == 1 {
			return loc{'b', keys[0]}, true
		}
	case *ast.ListQuery:
		if n.Op == ast.ListSize {
			if name, ok := listName(n.List); ok {
				return loc{'l', name}, true
			}
		}
	}
	return loc{}, false
}

func (a *analyzer) locGet(l loc, st *absState) ival {
	switch l.kind {
	case 'v':
		return st.vars[l.key]
	case 'b':
		return st.bufs[l.key]
	}
	return st.lists[l.key]
}

func (a *analyzer) locSet(l loc, st *absState, v ival) {
	switch l.kind {
	case 'v':
		st.vars[l.key] = v
	case 'b':
		st.bufs[l.key] = v
	default:
		st.lists[l.key] = v
	}
}

func (a *analyzer) refineCmp(st *absState, n *ast.Binary, want bool) bool {
	// Normalize to op over (X, Y) with want=true.
	op := n.Op
	if !want {
		switch op {
		case ast.OpLt:
			op = ast.OpGe
		case ast.OpLe:
			op = ast.OpGt
		case ast.OpGt:
			op = ast.OpLe
		case ast.OpGe:
			op = ast.OpLt
		case ast.OpEq:
			op = ast.OpNeq
		case ast.OpNeq:
			op = ast.OpEq
		}
	}
	x := a.evalExpr(n.X, st)
	y := a.evalExpr(n.Y, st)

	// Tighten one side against the other's current interval.
	tighten := func(l loc, cur ival, other ival, rel ast.BinOp) bool {
		var nv ival
		switch rel {
		case ast.OpLt:
			nv = meet(cur, ival{a.d.min, other.hi - 1})
		case ast.OpLe:
			nv = meet(cur, ival{a.d.min, other.hi})
		case ast.OpGt:
			nv = meet(cur, ival{other.lo + 1, a.d.max})
		case ast.OpGe:
			nv = meet(cur, ival{other.lo, a.d.max})
		case ast.OpEq:
			nv = meet(cur, other)
		case ast.OpNeq:
			nv = cur
			if other.isConst() {
				if nv.lo == other.lo {
					nv.lo++
				}
				if nv.hi == other.lo {
					nv.hi--
				}
			}
		default:
			return true
		}
		if nv.empty() {
			return false
		}
		a.locSet(l, st, nv)
		return true
	}

	flip := func(rel ast.BinOp) ast.BinOp {
		switch rel {
		case ast.OpLt:
			return ast.OpGt
		case ast.OpLe:
			return ast.OpGe
		case ast.OpGt:
			return ast.OpLt
		case ast.OpGe:
			return ast.OpLe
		}
		return rel
	}

	ok := true
	if lx, isLoc := a.asLoc(n.X, st); isLoc {
		ok = ok && tighten(lx, x, y, op)
	}
	if ly, isLoc := a.asLoc(n.Y, st); isLoc {
		ok = ok && tighten(ly, y, x, flip(op))
	}
	if !ok {
		return false
	}
	// Even without a refinable location, a relation that is already
	// definitely false over the current intervals is a contradiction.
	switch op {
	case ast.OpLt:
		return cmpLt(x, y) != triFalse
	case ast.OpLe:
		return cmpLe(x, y) != triFalse
	case ast.OpGt:
		return cmpLt(y, x) != triFalse
	case ast.OpGe:
		return cmpLe(y, x) != triFalse
	case ast.OpEq:
		return cmpEq(x, y) != triFalse
	case ast.OpNeq:
		return cmpEq(x, y) != triTrue
	}
	return true
}

func listName(e ast.Expr) (string, bool) {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

// ----- diagnostics from aggregates -----

func (a *analyzer) finishDiags() {
	for pos, ag := range a.condAgg {
		total := ag.t + ag.f + ag.u
		if total == 0 {
			continue
		}
		if ag.t == total {
			a.rep.add(Diagnostic{
				Code: CodeCondTrue, Severity: Warn, Pos: pos,
				Msg:  "condition is always true within the horizon",
				Hint: "the else branch (if any) is dead; drop the test or fix the guard",
			})
		}
		if ag.f == total {
			a.rep.add(Diagnostic{
				Code: CodeCondFalse, Severity: Warn, Pos: pos,
				Msg:  "condition is always false within the horizon",
				Hint: "the then branch is unreachable; drop it or fix the guard",
			})
		}
	}
	for pos, ag := range a.assertAgg {
		total := ag.t + ag.f + ag.u
		if total == 0 {
			continue
		}
		if ag.t == total {
			a.rep.add(Diagnostic{
				Code: CodeDeadAssert, Severity: Info, Pos: pos,
				Msg:  "assert always holds within the horizon (dead constraint)",
				Hint: "the solver proves this without search; consider removing it or strengthening the query",
			})
		}
		if ag.f == total {
			a.rep.add(Diagnostic{
				Code: CodeNeverAssert, Severity: Warn, Pos: pos,
				Msg:  "assert can never hold within the horizon",
				Hint: "no execution satisfies this query; a witness search is guaranteed to fail",
			})
		}
	}
	for pos, ag := range a.negMoveAgg {
		if ag.t > 0 && ag.f == 0 && ag.u == 0 {
			a.rep.add(Diagnostic{
				Code: CodeNegativeMove, Severity: Info, Pos: pos,
				Msg:  "move count is always negative; the move never transfers anything",
				Hint: "negative counts clamp to zero — use a non-negative expression",
			})
		}
	}
	for pos := range a.overflowAt {
		a.rep.add(Diagnostic{
			Code: CodeOverflow, Severity: Warn, Pos: pos,
			Msg:  "guaranteed buffer capacity violation: every execution drops packets here",
			Hint: "the destination cannot absorb the guaranteed inflow; raise its capacity or shrink the move",
		})
	}
	for pos, sev := range a.contraAt {
		msg := "assumption is unsatisfiable on this path"
		hint := "the path guarded by this assume admits no execution"
		if sev == Error {
			msg = "workload assumptions are contradictory: no execution satisfies them"
			hint = "every query over this program is vacuous; fix the assume constraints"
		}
		a.rep.add(Diagnostic{Code: CodeContradiction, Severity: sev, Pos: pos, Msg: msg, Hint: hint})
	}
	if a.contradiction {
		hasErr := false
		for _, sev := range a.contraAt {
			if sev == Error {
				hasErr = true
			}
		}
		if !hasErr {
			a.rep.add(Diagnostic{
				Code: CodeContradiction, Severity: Error, Pos: a.info.Prog.NamePos,
				Msg: fmt.Sprintf("workload assumptions become contradictory at step %d: no execution completes the horizon", a.contradictionStep),
			})
		}
	}
}
