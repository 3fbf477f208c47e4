package sema

// Pass 2 structural checks: declaration hygiene, horizon sanity, and
// buffer-topology analysis. These need no abstract execution — they read
// the typed AST and the resolved symbol table.

import (
	"fmt"
	"sort"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/token"
	"buffy/internal/lang/typecheck"
)

// structuralPass appends structural diagnostics to rep. It returns true
// when the horizon is unusable (T <= 0), in which case the interval pass
// must be skipped.
func structuralPass(info *typecheck.Info, opts Options, rep *Report) (badHorizon bool) {
	prog := info.Prog

	// B003: horizon sanity. opts.withDefaults clamps T to >= 1, so probe
	// the caller-supplied value through the report only when it arrives
	// non-positive — Analyze passes the raw value separately.
	if opts.T <= 0 {
		rep.add(Diagnostic{
			Code: CodeBadHorizon, Severity: Error, Pos: prog.NamePos,
			Msg:  fmt.Sprintf("horizon T = %d: analysis needs at least one step", opts.T),
			Hint: "pass -T with a positive horizon",
		})
		badHorizon = true
	}

	// Which declarations and buffer parameters are ever referenced. The
	// symbol table maps every identifier *use* (declarations are not
	// Idents), so presence in it is exactly "referenced somewhere".
	usedDecl := make(map[*ast.VarDecl]bool)
	usedBuf := make(map[*ast.BufferParam]bool)
	for _, sym := range info.Symbols {
		switch sym.Kind {
		case typecheck.SymVar:
			usedDecl[sym.Decl] = true
		case typecheck.SymBuffer:
			usedBuf[sym.Buf] = true
		}
	}

	// B001: declared but never referenced (neither read nor written).
	for _, decls := range [][]*ast.VarDecl{info.Globals, info.Locals, info.Monitors} {
		for _, d := range decls {
			if !usedDecl[d] {
				rep.add(Diagnostic{
					Code: CodeUnusedVar, Severity: Warn, Pos: d.NamePos,
					Msg:  fmt.Sprintf("%v %s %q is declared but never used", d.Storage, d.Type, d.Name),
					Hint: "remove the declaration (every variable widens the solver's state space)",
				})
			}
		}
	}

	// B002: buffer parameter never referenced. Unused buffers still cost
	// the solver arrival variables and capacity tracking every step.
	for _, bufs := range [][]*ast.BufferParam{info.Inputs, info.Outputs} {
		for _, bp := range bufs {
			if !usedBuf[bp] {
				rep.add(Diagnostic{
					Code: CodeUnusedBuffer, Severity: Warn, Pos: bp.NamePos,
					Msg:  fmt.Sprintf("%v buffer %q is never moved from, moved to, or observed", bp.Dir, bp.Name),
					Hint: "drop the parameter or route traffic through it",
				})
			}
		}
	}

	// B006: loop variable shadowing a compile-time parameter. The body
	// then silently sees the induction value, not the constant.
	paramSet := make(map[string]bool, len(info.Params))
	for _, p := range info.Params {
		paramSet[p] = true
	}
	ast.Walk(prog.Body, func(s ast.Stmt) {
		if f, ok := s.(*ast.For); ok && paramSet[f.Var] {
			rep.add(Diagnostic{
				Code: CodeShadowParam, Severity: Warn, Pos: f.KwPos,
				Msg:  fmt.Sprintf("loop variable %q shadows the compile-time parameter of the same name", f.Var),
				Hint: "rename the loop variable; inside the loop it hides the constant",
			})
		}
	})

	// Buffer move topology: an edge src -> dst per move command, with
	// array instances collapsed to their base buffer.
	edges := make(map[string]map[string]bool)
	addEdge := func(src, dst string) {
		if src == "" || dst == "" || src == dst {
			if src != "" && src == dst {
				// self-loop: a buffer feeding itself is a cycle too
				if edges[src] == nil {
					edges[src] = make(map[string]bool)
				}
				edges[src][dst] = true
			}
			return
		}
		if edges[src] == nil {
			edges[src] = make(map[string]bool)
		}
		edges[src][dst] = true
	}
	ast.Walk(prog.Body, func(s ast.Stmt) {
		if mv, ok := s.(*ast.Move); ok {
			addEdge(baseBufferName(mv.Src), baseBufferName(mv.Dst))
		}
	})

	// B005: cycle detection. The netcalc lowering needs a feed-forward
	// network; a cycle guarantees it will refuse the program.
	if cyc := findCycle(edges); len(cyc) > 0 {
		rep.add(Diagnostic{
			Code: CodeNotFeedFwd, Severity: Warn, Pos: movePosFor(prog, cyc[0]),
			Msg:  fmt.Sprintf("buffer topology is not feed-forward: cycle %s", cycleString(cyc)),
			Hint: "netcalc lowering (-mode bound, POST /v1/bound) will reject this program; only the SMT tier can analyze it",
		})
	} else if !badHorizon {
		// B004: horizon shallower than the longest input->output path —
		// packets cannot traverse the pipeline inside the horizon, so
		// end-to-end asserts are typically vacuous. Only meaningful on a
		// DAG (longest path is undefined under cycles).
		depth := longestPath(edges, info)
		if depth > 0 && opts.T < depth {
			rep.add(Diagnostic{
				Code: CodeShallowT, Severity: Info, Pos: prog.NamePos,
				Msg:  fmt.Sprintf("horizon T = %d is smaller than the pipeline depth %d", opts.T, depth),
				Hint: fmt.Sprintf("packets need %d steps to reach the output; raise -T to at least %d for end-to-end properties", depth, depth),
			})
		}
	}
	return badHorizon
}

// baseBufferName strips indexing and filtering down to the buffer
// parameter's name ("" when the expression is not rooted at one).
func baseBufferName(e ast.Expr) string {
	switch n := e.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.Index:
		return baseBufferName(n.X)
	case *ast.Filter:
		return baseBufferName(n.Buf)
	}
	return ""
}

// movePosFor finds the first move statement whose source is the given
// buffer, for anchoring the topology diagnostic.
func movePosFor(prog *ast.Program, src string) (pos token.Pos) {
	pos = prog.NamePos
	found := false
	ast.Walk(prog.Body, func(s ast.Stmt) {
		if found {
			return
		}
		if mv, ok := s.(*ast.Move); ok && baseBufferName(mv.Src) == src {
			pos, found = mv.KwPos, true
		}
	})
	return pos
}

// findCycle returns one cycle in the move graph as a node sequence
// (first node repeated at the end), or nil when the graph is a DAG.
func findCycle(edges map[string]map[string]bool) []string {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string
	var visit func(n string) bool
	visit = func(n string) bool {
		color[n] = grey
		stack = append(stack, n)
		for m := range edges[n] {
			switch color[m] {
			case grey:
				// unwind the stack back to m
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == m {
						cycle = append(append([]string{}, stack[i:]...), m)
						return true
					}
				}
				cycle = []string{m, m}
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	// Deterministic iteration: sort roots.
	roots := make([]string, 0, len(edges))
	for n := range edges {
		roots = append(roots, n)
	}
	sort.Strings(roots)
	for _, n := range roots {
		if color[n] == white && visit(n) {
			return cycle
		}
	}
	return nil
}

func cycleString(cyc []string) string {
	s := ""
	for i, n := range cyc {
		if i > 0 {
			s += " -> "
		}
		s += n
	}
	return s
}

// longestPath computes the longest input->output path length (in hops)
// of the feed-forward move graph. Each hop costs one step: a move
// executes within a step, but a packet arriving at step t is only
// observable downstream after traversing each queue in sequence.
func longestPath(edges map[string]map[string]bool, info *typecheck.Info) int {
	outSet := make(map[string]bool)
	for _, bp := range info.Outputs {
		outSet[bp.Name] = true
	}
	memo := make(map[string]int)
	var depth func(n string) int
	depth = func(n string) int {
		if d, ok := memo[n]; ok {
			return d
		}
		memo[n] = 0 // cycle guard; graph is a DAG when we get here
		best := 0
		for m := range edges[n] {
			d := depth(m) + 1
			if d > best {
				best = d
			}
		}
		if best == 0 && !outSet[n] {
			// Dead-ends that are not outputs contribute no meaningful
			// pipeline depth.
			best = 0
		}
		memo[n] = best
		return best
	}
	best := 0
	for _, bp := range info.Inputs {
		if d := depth(bp.Name); d > best {
			best = d
		}
	}
	return best
}
