// Package typecheck implements semantic analysis for Buffy programs: symbol
// resolution, type checking of every expression and command, ghost-code
// (monitor) discipline, and collection of the program's compile-time
// parameters (the N in `buffer[N] ibs`, loop bounds, and any other free
// identifiers, which per §7 must be bound to constants before analysis).
package typecheck

import (
	"fmt"
	"sort"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/token"
)

// Error is a semantic error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%v: %s", e.Pos, e.Msg) }

// ErrorList is every semantic error found in one checking run, in source
// order. It implements error so callers that only care about failure can
// treat it opaquely, while diagnostic renderers (internal/vet) get all
// positions at once.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	if len(l) == 1 {
		return l[0].Error()
	}
	return fmt.Sprintf("%v (and %d more errors)", l[0], len(l)-1)
}

// SymKind classifies resolved identifiers.
type SymKind int

// Symbol kinds.
const (
	SymVar     SymKind = iota // global/local/monitor variable
	SymBuffer                 // buffer parameter
	SymLoopVar                // bounded-for induction variable
	SymParam                  // free identifier: compile-time parameter
	SymBuiltin                // t (current step) and T (horizon)
)

// Symbol is a resolved identifier.
type Symbol struct {
	Kind SymKind
	Name string
	Decl *ast.VarDecl     // for SymVar
	Buf  *ast.BufferParam // for SymBuffer
	Type ast.Type         // declared type (SymVar); int for others
}

// ExprType describes the type of an expression, extending ast's value types
// with buffer-ness (buffers are second-class: only usable in buffer
// positions).
type ExprType struct {
	Kind    ast.TypeKind
	IsArray bool
}

func (t ExprType) String() string {
	if t.IsArray {
		return t.Kind.String() + "[]"
	}
	return t.Kind.String()
}

// Info is the result of checking a program.
type Info struct {
	Prog *ast.Program

	// Params are the program's compile-time integer parameters, sorted by
	// name. Values for all of them must be supplied at compile time.
	Params []string

	// Symbols resolves every identifier use.
	Symbols map[*ast.Ident]*Symbol

	// Types records the type of every expression.
	Types map[ast.Expr]ExprType

	// Globals, Locals and Monitors list the declared variables by class.
	Globals  []*ast.VarDecl
	Locals   []*ast.VarDecl
	Monitors []*ast.VarDecl

	// Inputs and Outputs are the buffer parameters by direction.
	Inputs  []*ast.BufferParam
	Outputs []*ast.BufferParam

	// FieldIndex maps declared packet field names to their index.
	FieldIndex map[string]int
}

type checker struct {
	prog   *ast.Program
	info   *Info
	errs   []*Error
	vars   map[string]*Symbol // declared variables
	bufs   map[string]*Symbol
	loops  map[string]*Symbol // active loop variables (scoped)
	params map[string]bool    // free identifiers
}

// Check analyses the program and returns symbol/type information. On
// failure it returns the first error; use CheckAll to collect every
// diagnostic with its position.
func Check(prog *ast.Program) (*Info, error) {
	info, errs := CheckAll(prog)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return info, nil
}

// CheckAll analyses the program and returns symbol/type information plus
// every semantic error found (nil Info when errs is non-empty). All
// errors carry source positions, so vet and typecheck findings render
// uniformly as file:line:col.
func CheckAll(prog *ast.Program) (*Info, ErrorList) {
	c := &checker{
		prog: prog,
		info: &Info{
			Prog:       prog,
			Symbols:    make(map[*ast.Ident]*Symbol),
			Types:      make(map[ast.Expr]ExprType),
			FieldIndex: make(map[string]int),
		},
		vars:   make(map[string]*Symbol),
		bufs:   make(map[string]*Symbol),
		loops:  make(map[string]*Symbol),
		params: make(map[string]bool),
	}
	c.collectFields()
	c.collectBuffers()
	c.collectVars()
	c.checkDecls()
	c.checkStmts(prog.Body, false)
	if len(c.errs) > 0 {
		sort.SliceStable(c.errs, func(i, j int) bool {
			a, b := c.errs[i].Pos, c.errs[j].Pos
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Col < b.Col
		})
		return nil, ErrorList(c.errs)
	}
	for name := range c.params {
		c.info.Params = append(c.info.Params, name)
	}
	sort.Strings(c.info.Params)
	return c.info, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) collectFields() {
	for i, f := range c.prog.Fields {
		if _, dup := c.info.FieldIndex[f]; dup {
			pos := c.prog.NamePos
			if i < len(c.prog.FieldsPos) {
				pos = c.prog.FieldsPos[i]
			}
			c.errorf(pos, "duplicate packet field %q", f)
			continue
		}
		c.info.FieldIndex[f] = i
	}
}

func (c *checker) collectBuffers() {
	for _, bp := range c.prog.Params {
		if _, dup := c.bufs[bp.Name]; dup {
			c.errorf(bp.NamePos, "duplicate buffer parameter %q", bp.Name)
			continue
		}
		sym := &Symbol{Kind: SymBuffer, Name: bp.Name, Buf: bp}
		c.bufs[bp.Name] = sym
		if bp.Dir == ast.DirIn {
			c.info.Inputs = append(c.info.Inputs, bp)
		} else {
			c.info.Outputs = append(c.info.Outputs, bp)
		}
	}
	if len(c.info.Outputs) == 0 {
		c.errorf(c.prog.NamePos, "program %s has no output buffer", c.prog.Name)
	}
}

func (c *checker) collectVars() {
	for _, d := range c.prog.Decls {
		if _, dup := c.vars[d.Name]; dup {
			c.errorf(d.NamePos, "variable %q redeclared", d.Name)
			continue
		}
		if _, isBuf := c.bufs[d.Name]; isBuf {
			c.errorf(d.NamePos, "variable %q shadows buffer parameter", d.Name)
			continue
		}
		if d.Name == "t" || d.Name == "T" {
			c.errorf(d.NamePos, "%q is reserved (current step / horizon)", d.Name)
			continue
		}
		if d.Type.Kind == ast.TBuffer {
			c.errorf(d.NamePos, "buffers can only be program parameters")
			continue
		}
		if d.Type.Kind == ast.TList && d.Storage == ast.Local {
			c.errorf(d.NamePos, "lists must be global (they persist across steps)")
		}
		sym := &Symbol{Kind: SymVar, Name: d.Name, Decl: d, Type: d.Type}
		c.vars[d.Name] = sym
		switch d.Storage {
		case ast.Global:
			c.info.Globals = append(c.info.Globals, d)
		case ast.Local:
			c.info.Locals = append(c.info.Locals, d)
		case ast.Monitor:
			c.info.Monitors = append(c.info.Monitors, d)
		}
	}
}

// checkDecls checks buffer sizes, array sizes and initializers once every
// buffer and variable is known, so a name declared later in the program
// is still recognized as a variable rather than taken for a parameter.
func (c *checker) checkDecls() {
	for _, bp := range c.prog.Params {
		if bp.Size != nil {
			c.checkIntConst(bp.Size, "size")
		}
	}
	for _, d := range c.prog.Decls {
		if c.vars[d.Name] == nil || c.vars[d.Name].Decl != d {
			continue // rejected in collectVars
		}
		if d.Type.Size != nil {
			c.checkIntConst(d.Type.Size, "size")
		}
		if d.Init == nil {
			continue
		}
		if d.Type.Kind == ast.TList {
			c.errorf(d.NamePos, "lists cannot have initializers")
			continue
		}
		got, ok := c.checkConst(d.Init, "initializer")
		if ok && (got.Kind != d.Type.Kind || got.IsArray) {
			c.errorf(d.Init.Pos(), "initializer for %s has type %v, want %v", d.Name, got, d.Type.Kind)
		}
	}
}

// checkConst checks a compile-time constant (a size, a loop bound or an
// initializer) and returns its type; ok is false when it is not
// constant. A constant may use only what Fold evaluates: int and bool
// literals, parameters, T, t, loop variables, unary - and !, and
// + - * / %.
func (c *checker) checkConst(e ast.Expr, what string) (t ExprType, ok bool) {
	if !c.constOnly(e, what) {
		return ExprType{}, false
	}
	return c.checkExpr(e, false), true
}

// checkIntConst checks an int constant: a size or a loop bound.
func (c *checker) checkIntConst(e ast.Expr, what string) {
	if t, ok := c.checkConst(e, what); ok && (t.Kind != ast.TInt || t.IsArray) {
		c.errorf(e.Pos(), "%s must be int, got %v", what, t)
	}
}

// constOnly reports whether e is made only of constant operands and
// operators, reporting the first offending node otherwise.
func (c *checker) constOnly(e ast.Expr, what string) bool {
	switch n := e.(type) {
	case *ast.IntLit, *ast.BoolLit:
		return true
	case *ast.Ident:
		if _, isVar := c.vars[n.Name]; isVar {
			c.errorf(n.IdPos, "%s must be a compile-time constant; %q is a variable", what, n.Name)
			return false
		}
		if _, isLoop := c.loops[n.Name]; !isLoop {
			if _, isBuf := c.bufs[n.Name]; isBuf {
				c.errorf(n.IdPos, "%s must be a compile-time constant; %q is a buffer", what, n.Name)
				return false
			}
		}
		return true
	case *ast.Unary:
		return c.constOnly(n.X, what)
	case *ast.Binary:
		switch n.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
			return c.constOnly(n.X, what) && c.constOnly(n.Y, what)
		}
		c.errorf(n.Pos(), "operator %v not allowed in a constant expression", n.Op)
		return false
	}
	c.errorf(e.Pos(), "%s must be a compile-time constant expression (§7)", what)
	return false
}

// checkStmts checks a statement list. ghost is true inside monitor-update
// context (currently: assert/assume handled separately).
func (c *checker) checkStmts(stmts []ast.Stmt, ghost bool) {
	for _, s := range stmts {
		c.checkStmt(s, ghost)
	}
}

func (c *checker) checkStmt(s ast.Stmt, ghost bool) {
	switch n := s.(type) {
	case *ast.VarDecl:
		c.errorf(n.NamePos, "declarations must precede statements") // decls are hoisted by parser
	case *ast.Assign:
		c.checkAssign(n)
	case *ast.PushBack:
		lt := c.checkExpr(n.List, false)
		if lt.Kind != ast.TList {
			c.errorf(n.List.Pos(), "push_back on non-list %v", lt)
		}
		at := c.checkExpr(n.Arg, false)
		if at.Kind != ast.TInt || at.IsArray {
			c.errorf(n.Arg.Pos(), "push_back argument must be int, got %v", at)
		}
	case *ast.Move:
		c.checkBufferExpr(n.Src, "move source")
		c.checkBufferExpr(n.Dst, "move destination")
		if _, isFilter := n.Dst.(*ast.Filter); isFilter {
			c.errorf(n.Dst.Pos(), "move destination cannot be a filtered view")
		}
		ct := c.checkExpr(n.Count, false)
		if ct.Kind != ast.TInt || ct.IsArray {
			c.errorf(n.Count.Pos(), "move count must be int, got %v", ct)
		}
	case *ast.If:
		ct := c.checkExpr(n.Cond, ghost)
		if ct.Kind != ast.TBool {
			c.errorf(n.Cond.Pos(), "if condition must be bool, got %v", ct)
		}
		c.checkStmts(n.Then, ghost)
		c.checkStmts(n.Else, ghost)
	case *ast.For:
		c.checkIntConst(n.Lo, "loop bound")
		c.checkIntConst(n.Hi, "loop bound")
		if _, exists := c.loops[n.Var]; exists {
			c.errorf(n.KwPos, "loop variable %q shadows an enclosing loop variable", n.Var)
		}
		if _, isVar := c.vars[n.Var]; isVar {
			c.errorf(n.KwPos, "loop variable %q shadows a declared variable", n.Var)
		}
		sym := &Symbol{Kind: SymLoopVar, Name: n.Var}
		c.loops[n.Var] = sym
		c.checkStmts(n.Body, ghost)
		delete(c.loops, n.Var)
	case *ast.Assert:
		ct := c.checkExpr(n.Cond, true)
		if ct.Kind != ast.TBool {
			c.errorf(n.Cond.Pos(), "assert condition must be bool, got %v", ct)
		}
	case *ast.Assume:
		ct := c.checkExpr(n.Cond, true)
		if ct.Kind != ast.TBool {
			c.errorf(n.Cond.Pos(), "assume condition must be bool, got %v", ct)
		}
	case *ast.Havoc:
		sym := c.lookupVar(n.Target)
		if sym == nil {
			return
		}
		if sym.Type.IsArray() {
			c.errorf(n.KwPos, "cannot havoc a whole array")
		}
		if sym.Decl != nil && sym.Decl.Storage == ast.Monitor {
			c.errorf(n.KwPos, "cannot havoc a monitor (ghost code)")
		}
	default:
		c.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

func (c *checker) checkAssign(n *ast.Assign) {
	// Resolve the target.
	var targetSym *Symbol
	switch lhs := n.LHS.(type) {
	case *ast.Ident:
		targetSym = c.lookupVar(lhs)
		if targetSym == nil {
			return
		}
		if targetSym.Type.IsArray() {
			c.errorf(lhs.IdPos, "cannot assign whole array %q", lhs.Name)
			return
		}
	case *ast.Index:
		base, ok := lhs.X.(*ast.Ident)
		if !ok {
			c.errorf(lhs.Pos(), "invalid assignment target")
			return
		}
		targetSym = c.lookupVar(base)
		if targetSym == nil {
			return
		}
		if !targetSym.Type.IsArray() {
			c.errorf(base.IdPos, "%q is not an array", base.Name)
			return
		}
		it := c.checkExpr(lhs.Idx, false)
		if it.Kind != ast.TInt || it.IsArray {
			c.errorf(lhs.Idx.Pos(), "array index must be int, got %v", it)
		}
	default:
		c.errorf(n.LHS.Pos(), "invalid assignment target")
		return
	}
	c.info.Types[n.LHS] = ExprType{Kind: targetSym.Type.Kind}

	ghostTarget := targetSym.Decl != nil && targetSym.Decl.Storage == ast.Monitor

	// pop_front is only legal as the entire RHS.
	if pf, ok := n.RHS.(*ast.PopFront); ok {
		lt := c.checkExpr(pf.List, ghostTarget)
		if lt.Kind != ast.TList {
			c.errorf(pf.List.Pos(), "pop_front on non-list %v", lt)
		}
		if targetSym.Type.Kind != ast.TInt {
			c.errorf(n.LHS.Pos(), "pop_front yields int; target %q is %v", targetSym.Name, targetSym.Type.Kind)
		}
		if ghostTarget {
			c.errorf(n.LHS.Pos(), "pop_front mutates program state; monitors are ghost code")
		}
		c.info.Types[n.RHS] = ExprType{Kind: ast.TInt}
		return
	}
	rt := c.checkExpr(n.RHS, ghostTarget)
	if rt.IsArray {
		c.errorf(n.RHS.Pos(), "cannot assign an array value")
		return
	}
	if rt.Kind != targetSym.Type.Kind {
		c.errorf(n.RHS.Pos(), "cannot assign %v to %v variable %q", rt, targetSym.Type.Kind, targetSym.Name)
	}
}

func (c *checker) lookupVar(id *ast.Ident) *Symbol {
	if sym, ok := c.vars[id.Name]; ok {
		c.info.Symbols[id] = sym
		return sym
	}
	if _, isLoop := c.loops[id.Name]; isLoop {
		c.errorf(id.IdPos, "cannot assign to loop variable %q", id.Name)
		return nil
	}
	if _, isBuf := c.bufs[id.Name]; isBuf {
		c.errorf(id.IdPos, "cannot assign to buffer %q (use move-p/move-b)", id.Name)
		return nil
	}
	c.errorf(id.IdPos, "assignment to undeclared variable %q", id.Name)
	return nil
}

// checkBufferExpr checks that e denotes a buffer (possibly indexed from a
// buffer array, possibly filtered) and returns whether it did.
func (c *checker) checkBufferExpr(e ast.Expr, what string) bool {
	t := c.checkExpr(e, false)
	if t.Kind != ast.TBuffer || t.IsArray {
		c.errorf(e.Pos(), "%s must be a buffer, got %v", what, t)
		return false
	}
	return true
}

// checkExpr computes and records the type of e. ghost reports whether the
// expression occurs in ghost context (assert/assume conditions or monitor
// updates), where reading monitors is allowed.
func (c *checker) checkExpr(e ast.Expr, ghost bool) ExprType {
	t := c.exprType(e, ghost)
	c.info.Types[e] = t
	return t
}

func (c *checker) exprType(e ast.Expr, ghost bool) ExprType {
	switch n := e.(type) {
	case *ast.IntLit:
		return ExprType{Kind: ast.TInt}
	case *ast.BoolLit:
		return ExprType{Kind: ast.TBool}
	case *ast.Ident:
		return c.identType(n, ghost)
	case *ast.Unary:
		xt := c.checkExpr(n.X, ghost)
		if n.Op == ast.OpNot {
			if xt.Kind != ast.TBool || xt.IsArray {
				c.errorf(n.X.Pos(), "operand of ! must be bool, got %v", xt)
			}
			return ExprType{Kind: ast.TBool}
		}
		if xt.Kind != ast.TInt || xt.IsArray {
			c.errorf(n.X.Pos(), "operand of unary - must be int, got %v", xt)
		}
		return ExprType{Kind: ast.TInt}
	case *ast.Binary:
		return c.binaryType(n, ghost)
	case *ast.Index:
		xt := c.checkExpr(n.X, ghost)
		it := c.checkExpr(n.Idx, ghost)
		if it.Kind != ast.TInt || it.IsArray {
			c.errorf(n.Idx.Pos(), "index must be int, got %v", it)
		}
		if !xt.IsArray {
			c.errorf(n.X.Pos(), "cannot index non-array %v", xt)
			return ExprType{Kind: xt.Kind}
		}
		return ExprType{Kind: xt.Kind}
	case *ast.Backlog:
		c.checkBufferExpr(n.Buf, "backlog argument")
		return ExprType{Kind: ast.TInt}
	case *ast.Filter:
		c.checkBufferExpr(n.Buf, "filter base")
		if _, ok := c.info.FieldIndex[n.Field]; !ok {
			c.errorf(n.Buf.Pos(), "unknown packet field %q (declare with `fields`)", n.Field)
		}
		vt := c.checkExpr(n.Value, ghost)
		if vt.Kind != ast.TInt || vt.IsArray {
			c.errorf(n.Value.Pos(), "filter value must be int, got %v", vt)
		}
		return ExprType{Kind: ast.TBuffer}
	case *ast.ListQuery:
		lt := c.checkExpr(n.List, ghost)
		if lt.Kind != ast.TList || lt.IsArray {
			c.errorf(n.List.Pos(), "%v on non-list %v", n.Op, lt)
		}
		if n.Op == ast.ListHas {
			at := c.checkExpr(n.Arg, ghost)
			if at.Kind != ast.TInt || at.IsArray {
				c.errorf(n.Arg.Pos(), "has argument must be int, got %v", at)
			}
			return ExprType{Kind: ast.TBool}
		}
		if n.Op == ast.ListEmpty {
			return ExprType{Kind: ast.TBool}
		}
		return ExprType{Kind: ast.TInt}
	case *ast.PopFront:
		c.errorf(n.Pos(), "pop_front may only appear as the entire right-hand side of an assignment")
		return ExprType{Kind: ast.TInt}
	}
	c.errorf(e.Pos(), "unhandled expression %T", e)
	return ExprType{Kind: ast.TInt}
}

func (c *checker) identType(id *ast.Ident, ghost bool) ExprType {
	if sym, ok := c.vars[id.Name]; ok {
		c.info.Symbols[id] = sym
		if sym.Decl.Storage == ast.Monitor && !ghost {
			c.errorf(id.IdPos, "monitor %q is ghost code and cannot influence program behaviour (§3)", id.Name)
		}
		return ExprType{Kind: sym.Type.Kind, IsArray: sym.Type.IsArray()}
	}
	if sym, ok := c.loops[id.Name]; ok {
		c.info.Symbols[id] = sym
		return ExprType{Kind: ast.TInt}
	}
	if sym, ok := c.bufs[id.Name]; ok {
		c.info.Symbols[id] = sym
		return ExprType{Kind: ast.TBuffer, IsArray: sym.Buf.Size != nil}
	}
	if id.Name == "t" || id.Name == "T" {
		c.info.Symbols[id] = &Symbol{Kind: SymBuiltin, Name: id.Name}
		return ExprType{Kind: ast.TInt}
	}
	// Free identifier: compile-time parameter.
	c.params[id.Name] = true
	c.info.Symbols[id] = &Symbol{Kind: SymParam, Name: id.Name}
	return ExprType{Kind: ast.TInt}
}

func (c *checker) binaryType(n *ast.Binary, ghost bool) ExprType {
	xt := c.checkExpr(n.X, ghost)
	yt := c.checkExpr(n.Y, ghost)
	intInt := func(what string) {
		if xt.Kind != ast.TInt || xt.IsArray {
			c.errorf(n.X.Pos(), "left operand of %s must be int, got %v", what, xt)
		}
		if yt.Kind != ast.TInt || yt.IsArray {
			c.errorf(n.Y.Pos(), "right operand of %s must be int, got %v", what, yt)
		}
	}
	switch n.Op {
	case ast.OpAdd, ast.OpSub, ast.OpMul:
		intInt(n.Op.String())
		return ExprType{Kind: ast.TInt}
	case ast.OpDiv, ast.OpMod:
		// §7 keeps division out of the encodings: it folds at compile
		// time, so both operands are constants.
		intInt(n.Op.String())
		what := "operand of " + n.Op.String()
		if c.constOnly(n.X, what) {
			c.constOnly(n.Y, what)
		}
		return ExprType{Kind: ast.TInt}
	case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		intInt(n.Op.String())
		return ExprType{Kind: ast.TBool}
	case ast.OpEq, ast.OpNeq:
		if xt.IsArray || yt.IsArray {
			c.errorf(n.X.Pos(), "cannot compare arrays")
		} else if xt.Kind != yt.Kind {
			c.errorf(n.X.Pos(), "cannot compare %v with %v", xt, yt)
		} else if xt.Kind == ast.TBuffer || xt.Kind == ast.TList {
			c.errorf(n.X.Pos(), "cannot compare %v values", xt.Kind)
		}
		return ExprType{Kind: ast.TBool}
	case ast.OpAnd, ast.OpOr:
		if xt.Kind != ast.TBool || xt.IsArray {
			c.errorf(n.X.Pos(), "left operand of %v must be bool, got %v", n.Op, xt)
		}
		if yt.Kind != ast.TBool || yt.IsArray {
			c.errorf(n.Y.Pos(), "right operand of %v must be bool, got %v", n.Op, yt)
		}
		return ExprType{Kind: ast.TBool}
	}
	c.errorf(n.Pos(), "unhandled operator %v", n.Op)
	return ExprType{Kind: ast.TInt}
}
