// Package lint is a project-specific static checker for the solver's
// hot paths, built directly on go/ast (no external analysis framework).
// It enforces two invariants that ordinary vet/staticcheck cannot see:
//
//	timecall: wall-clock reads (time.Now / time.Since) in the CDCL core
//	  are syscalls on some platforms and must never land on the
//	  per-propagation path. They are allowed only in an explicit set of
//	  budget-accounting functions, and inside any loop there they must
//	  sit under an amortizing cadence guard (a "counter&mask == 0" test).
//
//	cancelpoll: any unconditional for-loop in a function that carries a
//	  resource budget (a Limits parameter) is a solve loop and can spin
//	  for minutes; it must poll cancellation (Limits.Cancel /
//	  .cancelled() / .budgetStop(...)) somewhere in its body, or a
//	  client disconnect cannot stop the search.
//
// The checker is intentionally conservative in scope: it lints the
// package directories it is pointed at (CI points it at internal/smt/...)
// and reports violations with file:line:col positions.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Issue is one finding.
type Issue struct {
	Pos  token.Position
	Rule string // "timecall" or "cancelpoll"
	Msg  string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: %s: %s", i.Pos, i.Rule, i.Msg)
}

// timeCallAllowed lists the functions (by bare name) that may read the
// wall clock in linted packages: the budgeted solve entry point, its
// budget-fraction accounting helper, and the Progress functions that
// stamp samples, event marks and the report's duration — Progress is
// fed only on the amortized publish cadence (every 64
// conflicts/decisions) or at restart/simplify/solve boundaries, never on
// the per-propagation path.
var timeCallAllowed = map[string]bool{
	"SolveLimited":   true,
	"budgetFraction": true,
	"observe":        true,
	"event":          true,
	"Report":         true,
}

// Dir lints every non-test .go file in dir (non-recursive) and returns
// the findings sorted by position.
func Dir(dir string) ([]Issue, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var issues []Issue
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		issues = append(issues, File(fset, f)...)
	}
	sort.Slice(issues, func(i, j int) bool {
		a, b := issues[i].Pos, issues[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return issues, nil
}

// File lints one parsed file.
func File(fset *token.FileSet, f *ast.File) []Issue {
	var issues []Issue
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		issues = append(issues, checkTimeCalls(fset, f.Name.Name, fn)...)
		issues = append(issues, checkCancelPolling(fset, fn)...)
	}
	return issues
}

// ----- rule: timecall -----

// checkTimeCalls applies the allowlist strictly in package sat (the
// CDCL core, where every function is on or near the per-propagation
// path); elsewhere one-shot setup reads are fine and only in-loop calls
// without a cadence guard are flagged.
func checkTimeCalls(fset *token.FileSet, pkg string, fn *ast.FuncDecl) []Issue {
	var issues []Issue
	walkWithStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isTimeCall(call) {
			return
		}
		sel := call.Fun.(*ast.SelectorExpr).Sel.Name
		switch {
		case pkg == "sat" && !timeCallAllowed[fn.Name.Name]:
			issues = append(issues, Issue{
				Pos:  fset.Position(call.Pos()),
				Rule: "timecall",
				Msg: fmt.Sprintf("time.%s in %s: wall-clock reads are restricted to the budget-accounting functions (%s)",
					sel, fn.Name.Name, allowedNames()),
			})
		case insideLoop(stack) && !cadenceGuarded(stack):
			issues = append(issues, Issue{
				Pos:  fset.Position(call.Pos()),
				Rule: "timecall",
				Msg: fmt.Sprintf("time.%s inside a loop in %s without a cadence guard (counter&mask == 0): this lands on the per-iteration hot path",
					sel, fn.Name.Name),
			})
		}
	})
	return issues
}

func isTimeCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since")
}

func allowedNames() string {
	names := make([]string, 0, len(timeCallAllowed))
	for n := range timeCallAllowed {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func insideLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// cadenceGuarded reports whether some enclosing if-statement's condition
// contains an "expr&mask == 0" (or "== 0" with the &-expression on either
// side) amortization test. The deadline checks in SolveLimited look like
//
//	if ... && s.stats.Conflicts&1023 == 0 && time.Now().After(...) { ... }
//
// where the time call itself sits inside the guarded condition; calls in
// the if body are equally fine.
func cadenceGuarded(stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(e ast.Node) bool {
			if isCadenceTest(e) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func isCadenceTest(n ast.Node) bool {
	cmp, ok := n.(*ast.BinaryExpr)
	if !ok || cmp.Op != token.EQL {
		return false
	}
	isAnd := func(e ast.Expr) bool {
		b, ok := e.(*ast.BinaryExpr)
		return ok && b.Op == token.AND
	}
	isZero := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return (isAnd(cmp.X) && isZero(cmp.Y)) || (isAnd(cmp.Y) && isZero(cmp.X))
}

// ----- rule: cancelpoll -----

func checkCancelPolling(fset *token.FileSet, fn *ast.FuncDecl) []Issue {
	if !hasLimitsParam(fn) {
		return nil
	}
	var issues []Issue
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !pollsCancellation(loop.Body) {
			issues = append(issues, Issue{
				Pos:  fset.Position(loop.Pos()),
				Rule: "cancelpoll",
				Msg: fmt.Sprintf("unconditional for-loop in budgeted function %s never polls cancellation (Limits.Cancel / cancelled() / budgetStop)",
					fn.Name.Name),
			})
		}
		return true
	})
	return issues
}

func hasLimitsParam(fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch tt := t.(type) {
		case *ast.Ident:
			if tt.Name == "Limits" {
				return true
			}
		case *ast.SelectorExpr:
			if tt.Sel.Name == "Limits" {
				return true
			}
		}
	}
	return false
}

func pollsCancellation(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Cancel", "cancelled", "budgetStop":
			found = true
			return false
		}
		return true
	})
	return found
}

// walkWithStack visits every node with the ancestor chain (outermost
// first, excluding the node itself).
func walkWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
