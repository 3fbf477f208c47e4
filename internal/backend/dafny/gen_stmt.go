package dafny

import (
	"fmt"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
)

// Note on fidelity: the generated Dafny model follows the paper's hand
// translation — buffers are unbounded seq<int> holding flow ids. Capacity
// and byte-size modeling live in the solver back-ends; move-b therefore has
// no Dafny translation.

type loopEnv map[string]int64

func (g *gen) emitStmts(stmts []ast.Stmt, le loopEnv) error {
	for _, s := range stmts {
		if err := g.emitStmt(s, le); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) emitStmt(s ast.Stmt, le loopEnv) error {
	switch n := s.(type) {
	case *ast.Assign:
		return g.emitAssign(n, le)
	case *ast.PushBack:
		lname := n.List.(*ast.Ident).Name
		arg, err := g.expr(n.Arg, le)
		if err != nil {
			return err
		}
		g.line("list_%s := list_%s + [%s];", lname, lname, arg)
		return nil
	case *ast.Move:
		return g.emitMove(n, le)
	case *ast.If:
		cond, err := g.expr(n.Cond, le)
		if err != nil {
			return err
		}
		g.line("if %s {", cond)
		g.ind++
		if err := g.emitStmts(n.Then, le); err != nil {
			return err
		}
		g.ind--
		if len(n.Else) > 0 {
			g.line("} else {")
			g.ind++
			if err := g.emitStmts(n.Else, le); err != nil {
				return err
			}
			g.ind--
		}
		g.line("}")
		return nil
	case *ast.For:
		lo, err := g.fold(n.Lo, le)
		if err != nil {
			return err
		}
		hi, err := g.fold(n.Hi, le)
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			inner := loopEnv{}
			for k, v := range le {
				inner[k] = v
			}
			inner[n.Var] = i
			g.line("// unrolled %s = %d", n.Var, i)
			if err := g.emitStmts(n.Body, inner); err != nil {
				return err
			}
		}
		return nil
	case *ast.Assert:
		c, err := g.expr(n.Cond, le)
		if err != nil {
			return err
		}
		g.line("assert %s;", c)
		return nil
	case *ast.Assume:
		c, err := g.expr(n.Cond, le)
		if err != nil {
			return err
		}
		g.line("assume %s;", c)
		return nil
	case *ast.Havoc:
		g.line("var_%s := *;", n.Target.Name)
		return nil
	}
	return fmt.Errorf("dafny: unhandled statement %T", s)
}

func (g *gen) emitAssign(n *ast.Assign, le loopEnv) error {
	// pop_front: guarded head read + tail update.
	if pf, ok := n.RHS.(*ast.PopFront); ok {
		lname := pf.List.(*ast.Ident).Name
		lhs, err := g.lvalueScalar(n.LHS, le)
		if err != nil {
			return err
		}
		g.line("%s := if |list_%s| > 0 then list_%s[0] else 0;", lhs, lname, lname)
		g.line("if |list_%s| > 0 { list_%s := list_%s[1..]; }", lname, lname, lname)
		return nil
	}
	rhs, err := g.expr(n.RHS, le)
	if err != nil {
		return err
	}
	switch tgt := n.LHS.(type) {
	case *ast.Ident:
		g.line("var_%s := %s;", tgt.Name, rhs)
		return nil
	case *ast.Index:
		base := tgt.X.(*ast.Ident).Name
		size, err := g.arraySize(base)
		if err != nil {
			return err
		}
		idx, err := g.expr(tgt.Idx, le)
		if err != nil {
			return err
		}
		tmp := g.fresh("idx")
		g.line("var %s: int := %s;", tmp, idx)
		for i := int64(0); i < size; i++ {
			g.line("if %s == %d { var_%s_%d := %s; }", tmp, i, base, i, rhs)
		}
		return nil
	}
	return fmt.Errorf("dafny: bad assignment target")
}

func (g *gen) lvalueScalar(e ast.Expr, le loopEnv) (string, error) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", fmt.Errorf("dafny: pop_front target must be a scalar variable")
	}
	return "var_" + id.Name, nil
}

func (g *gen) arraySize(name string) (int64, error) {
	for _, d := range g.info.Prog.Decls {
		if d.Name == name && d.Type.IsArray() {
			return g.fold(d.Type.Size, nil)
		}
	}
	return 0, fmt.Errorf("dafny: %q is not an array", name)
}

// bufCase is one candidate instance of a buffer expression.
type bufCase struct {
	cond string // Dafny boolean expression; "" means unconditional
	name string // Dafny seq variable
}

// resolveBuf resolves a buffer expression into candidate cases plus an
// optional filter value expression.
func (g *gen) resolveBuf(e ast.Expr, le loopEnv) ([]bufCase, string, error) {
	switch n := e.(type) {
	case *ast.Ident:
		return []bufCase{{name: "buf_" + n.Name}}, "", nil
	case *ast.Index:
		base := n.X.(*ast.Ident).Name
		bp := g.bufParam(base)
		if bp == nil {
			return nil, "", fmt.Errorf("dafny: %q is not a buffer array", base)
		}
		size, err := g.fold(bp.Size, nil)
		if err != nil {
			return nil, "", err
		}
		idx, err := g.expr(n.Idx, le)
		if err != nil {
			return nil, "", err
		}
		var cases []bufCase
		for i := int64(0); i < size; i++ {
			cases = append(cases, bufCase{
				cond: fmt.Sprintf("(%s) == %d", idx, i),
				name: fmt.Sprintf("buf_%s_%d", base, i),
			})
		}
		return cases, "", nil
	case *ast.Filter:
		cases, f, err := g.resolveBuf(n.Buf, le)
		if err != nil {
			return nil, "", err
		}
		if f != "" {
			return nil, "", fmt.Errorf("dafny: chained filters are not supported in the Dafny translation")
		}
		v, err := g.expr(n.Value, le)
		if err != nil {
			return nil, "", err
		}
		return cases, v, nil
	}
	return nil, "", fmt.Errorf("dafny: expected buffer expression")
}

func (g *gen) bufParam(name string) *ast.BufferParam {
	for _, bp := range g.info.Prog.Params {
		if bp.Name == name {
			return bp
		}
	}
	return nil
}

func (g *gen) emitMove(n *ast.Move, le loopEnv) error {
	if n.Bytes {
		return fmt.Errorf("dafny: move-b has no Dafny translation (buffers are flow sequences); use the solver back-ends")
	}
	srcCases, filt, err := g.resolveBuf(n.Src, le)
	if err != nil {
		return err
	}
	dstCases, dfilt, err := g.resolveBuf(n.Dst, le)
	if err != nil {
		return err
	}
	if dfilt != "" {
		return fmt.Errorf("dafny: move destination cannot be filtered")
	}
	cnt, err := g.expr(n.Count, le)
	if err != nil {
		return err
	}
	m := g.fresh("mv")
	g.line("var %s: int := %s;", m, cnt)
	g.line("if %s < 0 { %s := 0; }", m, m)
	for _, sc := range srcCases {
		if sc.cond != "" {
			g.line("if %s {", sc.cond)
			g.ind++
		}
		for _, dc := range dstCases {
			if dc.name == sc.name {
				continue // self-move is a no-op
			}
			if dc.cond != "" {
				g.line("if %s {", dc.cond)
				g.ind++
			}
			if filt == "" {
				g.line("%s := %s + take(%s, %s);", dc.name, dc.name, sc.name, m)
				g.line("%s := drop(%s, %s);", sc.name, sc.name, m)
			} else {
				g.line("%s := %s + takeF(%s, %s, %s);", dc.name, dc.name, sc.name, filt, m)
				g.line("%s := dropF(%s, %s, %s);", sc.name, sc.name, filt, m)
			}
			if dc.cond != "" {
				g.ind--
				g.line("}")
			}
		}
		if sc.cond != "" {
			g.ind--
			g.line("}")
		}
	}
	return nil
}

// expr renders an expression as Dafny text.
func (g *gen) expr(e ast.Expr, le loopEnv) (string, error) {
	switch n := e.(type) {
	case *ast.IntLit:
		return fmt.Sprintf("%d", n.Value), nil
	case *ast.BoolLit:
		return fmt.Sprintf("%t", n.Value), nil
	case *ast.Ident:
		return g.identExpr(n, le)
	case *ast.Unary:
		x, err := g.expr(n.X, le)
		if err != nil {
			return "", err
		}
		if n.Op == ast.OpNot {
			return "!(" + x + ")", nil
		}
		return "-(" + x + ")", nil
	case *ast.Binary:
		return g.binaryExpr(n, le)
	case *ast.Index:
		return g.indexExpr(n, le)
	case *ast.Backlog:
		cases, filt, err := g.resolveBuf(n.Buf, le)
		if err != nil {
			return "", err
		}
		if n.Bytes {
			return "", fmt.Errorf("dafny: backlog-b has no Dafny translation")
		}
		measure := func(name string) string {
			if filt == "" {
				return "|" + name + "|"
			}
			return fmt.Sprintf("countF(%s, %s)", name, filt)
		}
		if len(cases) == 1 && cases[0].cond == "" {
			return measure(cases[0].name), nil
		}
		out := "0"
		for i := len(cases) - 1; i >= 0; i-- {
			out = fmt.Sprintf("(if %s then %s else %s)", cases[i].cond, measure(cases[i].name), out)
		}
		return out, nil
	case *ast.ListQuery:
		lname := n.List.(*ast.Ident).Name
		switch n.Op {
		case ast.ListEmpty:
			return fmt.Sprintf("|list_%s| == 0", lname), nil
		case ast.ListSize:
			return fmt.Sprintf("|list_%s|", lname), nil
		case ast.ListHas:
			arg, err := g.expr(n.Arg, le)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(%s) in list_%s", arg, lname), nil
		}
	case *ast.PopFront:
		return "", fmt.Errorf("dafny: pop_front outside assignment")
	}
	return "", fmt.Errorf("dafny: unhandled expression %T", e)
}

func (g *gen) identExpr(n *ast.Ident, le loopEnv) (string, error) {
	if le != nil {
		if v, ok := le[n.Name]; ok {
			return fmt.Sprintf("%d", v), nil
		}
	}
	for _, d := range g.info.Prog.Decls {
		if d.Name == n.Name {
			return "var_" + n.Name, nil
		}
	}
	if n.Name == "t" {
		return fmt.Sprintf("%d", g.step), nil
	}
	if v, ok := g.opts.Params[n.Name]; ok {
		return fmt.Sprintf("%d", v), nil
	}
	if n.Name == "T" {
		return fmt.Sprintf("%d", g.opts.T), nil
	}
	return "", fmt.Errorf("dafny: unbound identifier %q", n.Name)
}

var dafnyOps = map[ast.BinOp]string{
	ast.OpAdd: "+", ast.OpSub: "-", ast.OpMul: "*",
	ast.OpEq: "==", ast.OpNeq: "!=", ast.OpLt: "<", ast.OpLe: "<=",
	ast.OpGt: ">", ast.OpGe: ">=", ast.OpAnd: "&&", ast.OpOr: "||",
}

func (g *gen) binaryExpr(n *ast.Binary, le loopEnv) (string, error) {
	if n.Op == ast.OpDiv || n.Op == ast.OpMod {
		v, err := g.fold(n, le)
		if err != nil {
			return "", fmt.Errorf("dafny: / and %% need constant operands: %w", err)
		}
		return fmt.Sprintf("%d", v), nil
	}
	x, err := g.expr(n.X, le)
	if err != nil {
		return "", err
	}
	y, err := g.expr(n.Y, le)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("(%s %s %s)", x, dafnyOps[n.Op], y), nil
}

func (g *gen) indexExpr(n *ast.Index, le loopEnv) (string, error) {
	base := n.X.(*ast.Ident).Name
	size, err := g.arraySize(base)
	if err != nil {
		return "", err
	}
	idx, err := g.expr(n.Idx, le)
	if err != nil {
		return "", err
	}
	out := "0"
	for i := size - 1; i >= 0; i-- {
		out = fmt.Sprintf("(if (%s) == %d then var_%s_%d else %s)", idx, i, base, i, out)
	}
	return out, nil
}

// fold evaluates a compile-time constant with the unrolled loop variables
// le in scope.
func (g *gen) fold(e ast.Expr, le loopEnv) (int64, error) {
	return typecheck.Fold(e, typecheck.Scope{Loop: le, Params: g.opts.Params, T: g.opts.T, Step: g.step}.Lookup)
}
