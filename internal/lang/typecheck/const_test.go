package typecheck

import (
	"errors"
	"strings"
	"testing"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/parser"
)

// foldPrefix wraps a constant as a global's initializer; parsing it
// yields the expression with real source positions.
const foldPrefix = "p(buffer a, buffer b) { global int x = "

func parseConst(t *testing.T, src string) ast.Expr {
	t.Helper()
	prog, err := parser.Parse(foldPrefix + src + "; }")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog.Decls[0].Init
}

func TestFold(t *testing.T) {
	params := map[string]int64{"N": 4}
	cases := []struct {
		name, src string
		scope     Scope
		want      int64
		// errAt is the source text the error must point at ("" = no error);
		// errMsg a substring of its message.
		errAt, errMsg string
	}{
		{name: "add", src: "1 + 2", want: 3},
		{name: "sub", src: "7 - 10", want: -3},
		{name: "mul", src: "6 * 7", want: 42},
		{name: "div", src: "7 / 2", want: 3},
		{name: "mod", src: "7 % 3", want: 1},
		{name: "negate", src: "-N", scope: Scope{Params: params}, want: -4},
		{name: "not true", src: "!true", want: 0},
		{name: "not false", src: "!false", want: 1},
		{name: "bool literal", src: "true", want: 1},
		{name: "nested", src: "(N + 2) * (N - 1) / 3", scope: Scope{Params: params}, want: 6},
		{name: "div truncates negative dividend", src: "-7 / 2", want: -3},
		{name: "div truncates negative divisor", src: "7 / -2", want: -3},
		{name: "mod keeps dividend sign", src: "-7 % 3", want: -1},
		{name: "mod of negative divisor", src: "7 % -3", want: 1},
		{name: "div by zero", src: "1 / 0", errAt: "0", errMsg: "/ by zero"},
		{name: "mod by folded zero", src: "5 % (N - 4)", scope: Scope{Params: params},
			errAt: "N - 4", errMsg: "% by zero"},
		{name: "unbound name", src: "M + 1", errAt: "M", errMsg: `"M" is not a compile-time constant`},
		{name: "horizon", src: "T * 2", scope: Scope{T: 3}, want: 6},
		{name: "current step", src: "t + 1", scope: Scope{Step: 2}, want: 3},
		{name: "symbolic horizon", src: "1 + T", scope: Scope{T: 3, SymbolicT: true},
			errAt: "T", errMsg: "T is symbolic"},
		{name: "parameter", src: "N", scope: Scope{Params: params}, want: 4},
		{name: "loop variable shadows parameter", src: "N",
			scope: Scope{Loop: map[string]int64{"N": 7}, Params: params}, want: 7},
		{name: "comparison", src: "1 < 2", errAt: "1 < 2", errMsg: "operator < not allowed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Fold(parseConst(t, c.src), c.scope.Lookup)
			if c.errAt == "" {
				if err != nil || got != c.want {
					t.Fatalf("Fold(%s) = %d, %v; want %d", c.src, got, err, c.want)
				}
				return
			}
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("Fold(%s) = %d, %v; want a positioned error", c.src, got, err)
			}
			wantCol := len(foldPrefix) + strings.Index(c.src, c.errAt) + 1
			if e.Pos.Line != 1 || e.Pos.Col != wantCol || !strings.Contains(e.Msg, c.errMsg) {
				t.Errorf("error %v, want %q at 1:%d", err, c.errMsg, wantCol)
			}
		})
	}
}

func TestConstantInitializers(t *testing.T) {
	mustCheck(t, `p(buffer[N] a, buffer b) {
		global bool on = true;
		global bool off = !true;
		global int k = -(N + T) * 2 / 3 % 5 + t;
		local bool seen = false;
		monitor int m = N;
		move-p(a[0], b, k);
	}`)
	cases := []struct{ name, src, sub string }{
		{"non-constant initializer",
			`p(buffer a, buffer b) { global int x; global int y = x + 1; move-p(a, b, y); }`,
			`initializer must be a compile-time constant; "x" is a variable`},
		{"initializer names a later variable",
			`p(buffer a, buffer b) { global int y = x; global int x; move-p(a, b, y); }`,
			`"x" is a variable`},
		{"buffer in initializer",
			`p(buffer a, buffer b) { global int y = a; move-p(a, b, y); }`, `"a" is a buffer`},
		{"call-like initializer",
			`p(buffer a, buffer b) { global int y = backlog-p(a); move-p(a, b, y); }`,
			"initializer must be a compile-time constant expression"},
		{"comparison initializer",
			`p(buffer a, buffer b) { global bool y = 1 < 2; move-p(a, b, 1); }`, "operator < not allowed"},
		{"size names a variable",
			`p(buffer a, buffer b) { global int n; global int[n] xs; move-p(a, b, 1); }`,
			`size must be a compile-time constant; "n" is a variable`},
		{"bool loop bound",
			`p(buffer a, buffer b) { for (i in 0..true) { move-p(a, b, 1); } }`, "loop bound must be int"},
		{"non-constant division",
			`p(buffer a, buffer b) { local int x; x = x / 2; move-p(a, b, x); }`,
			`operand of / must be a compile-time constant; "x" is a variable`},
		{"non-constant modulo",
			`p(buffer a, buffer b) { local int x; x = 7 % backlog-p(a); move-p(a, b, x); }`,
			"operand of % must be a compile-time constant expression"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantErr(t, c.src, c.sub) })
	}
}

func TestResolveBounds(t *testing.T) {
	info := mustCheck(t, `p(buffer[N] ins, buffer extra, buffer ob) { move-p(ins[0], ob, 1); move-p(extra, ob, 1); }`)
	cases := []struct {
		name   string
		in     Bounds
		T      int
		params map[string]int64
		want   Bounds
	}{
		{"defaults, 4 inputs", Bounds{}, 3, map[string]int64{"N": 3},
			Bounds{BufferCap: 8, OutBufferCap: 3*1*4 + 8, ArrivalsPerStep: 1, NumClasses: 4, MaxBytes: 1, ListCap: 4}},
		{"unbound size counts one instance", Bounds{}, 2, nil,
			Bounds{BufferCap: 8, OutBufferCap: 2*1*2 + 8, ArrivalsPerStep: 1, NumClasses: 2, MaxBytes: 1, ListCap: 4}},
		{"non-positive horizon is one step", Bounds{ArrivalsPerStep: 2}, 0, map[string]int64{"N": 7},
			Bounds{BufferCap: 8, OutBufferCap: 1*2*8 + 8, ArrivalsPerStep: 2, NumClasses: 8, MaxBytes: 1, ListCap: 8}},
		{"explicit values kept", Bounds{BufferCap: 3, OutBufferCap: 5, ArrivalsPerStep: 2, NumClasses: 6, MaxBytes: 4, ListCap: 9},
			6, map[string]int64{"N": 3},
			Bounds{BufferCap: 3, OutBufferCap: 5, ArrivalsPerStep: 2, NumClasses: 6, MaxBytes: 4, ListCap: 9}},
	}
	for _, c := range cases {
		if got := info.ResolveBounds(c.in, c.T, c.params); got != c.want {
			t.Errorf("%s: ResolveBounds = %+v, want %+v", c.name, got, c.want)
		}
	}
}
