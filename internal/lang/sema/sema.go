package sema

// Analyze orchestrates the three analysis passes and assembles the
// static verdict. See the package comment in diag.go for the pass
// inventory and DESIGN.md "Analysis tiers" for the soundness contract.

import (
	"fmt"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/token"
	"buffy/internal/lang/typecheck"
)

// maxIntervalT caps the horizon the interval pass will unroll; beyond it
// the pass is skipped (structural checks and lints still run). Far above
// any horizon the solver itself could handle.
const maxIntervalT = 1024

// maxArrayInstances caps per-array instance tracking; larger (or
// unknown-size) arrays are summarized with weak updates.
const maxArrayInstances = 64

// Options configure an analysis. The bounds are the ones the solver
// encodes, so the abstract semantics match what it will check.
type Options struct {
	// T is the time horizon (number of unrolled steps).
	T int
	// Params binds the program's compile-time parameters. Unbound
	// parameters are analyzed as unknown (top) — sound, but conclusive
	// verdicts then usually require the structural facts alone.
	Params map[string]int64
	// Bounds size buffers, lists and packets, with the defaults of
	// typecheck.ResolveBounds.
	typecheck.Bounds
	// Width is the solver's integer bit width (0: bitblast.DefaultWidth).
	// The interval domain refuses to conclude anything about values that
	// could wrap at this width.
	Width int
}

// DefaultWidth mirrors bitblast.DefaultWidth without importing it (sema
// sits below the backends in the dependency order).
const DefaultWidth = 12

// Analyze runs all passes over a type-checked program and returns the
// diagnostics plus, when the program is trivially decidable, a static
// query verdict. It never solves anything and is intended to cost
// microseconds.
func Analyze(info *typecheck.Info, opts Options) *Report {
	rep := &Report{}

	// Structural checks see the caller's raw horizon (B003 must observe a
	// non-positive T); everything after runs on the defaulted bounds.
	badHorizon := structuralPass(info, opts, rep)
	opts.Bounds = info.ResolveBounds(opts.Bounds, opts.T, opts.Params)
	opts.T = max(opts.T, 1)
	if opts.Width <= 0 {
		opts.Width = DefaultWidth
	}

	syntacticAsserts := 0
	ast.Walk(info.Prog.Body, func(s ast.Stmt) {
		if _, ok := s.(*ast.Assert); ok {
			syntacticAsserts++
		}
	})

	var az *analyzer
	if !badHorizon && opts.T <= maxIntervalT {
		az = newAnalyzer(info, opts, rep)
		az.runIntervals()
		rep.Steps = az.steps
	}

	lintPass(info, opts, rep)

	// Verdict assembly — only the over-approximation-sound directions.
	switch {
	case badHorizon:
		// An unusable horizon is an input error, not a decidable query.
	case syntacticAsserts == 0:
		rep.Verdict = Verdict{Verify: "holds", Witness: "no-witness", Reason: ReasonNoAsserts}
	case az == nil || az.exhausted:
		// Interval pass didn't run or ran out of steps; no dynamic facts
		// to conclude from.
	case az.contradiction:
		rep.Verdict = Verdict{Verify: "holds", Witness: "no-witness", Reason: ReasonAssumeContradiction}
	case az.assertInstances == 0:
		// Every assert sits on a statically-dead path: no execution
		// reaches one, so all hold vacuously and none can witness.
		rep.Verdict = Verdict{Verify: "holds", Witness: "no-witness", Reason: ReasonAssertsUnreachable}
	default:
		if az.assertDefTrue == az.assertInstances {
			rep.Verdict = Verdict{Verify: "holds", Reason: ReasonAssertsAlwaysTrue}
		}
		if az.assertUncondFalse {
			rep.Verdict.Witness = "no-witness"
			rep.Verdict.Reason = ReasonAssertNeverHolds
		}
	}

	rep.Sort()
	return rep
}

func newAnalyzer(info *typecheck.Info, opts Options, rep *Report) *analyzer {
	a := &analyzer{
		info:       info,
		opts:       opts,
		d:          newDom(opts.Width),
		rep:        rep,
		bufs:       make(map[string]*bufInfo),
		arrSize:    make(map[string]int64),
		listCap:    int64(opts.ListCap),
		loopVars:   make(map[string]ival),
		condAgg:    make(map[token.Pos]*agg),
		assertAgg:  make(map[token.Pos]*agg),
		negMoveAgg: make(map[token.Pos]*agg),
		overflowAt: make(map[token.Pos]bool),
		contraAt:   make(map[token.Pos]Severity),
		writes:     make(map[*ast.For]*writeKeys),
	}
	addBuf := func(bp *ast.BufferParam) {
		cap := int64(opts.BufferCap)
		if bp.Dir == ast.DirOut {
			cap = int64(opts.OutBufferCap)
		}
		bi := &bufInfo{param: bp, cap: cap}
		n := a.constSize(bp.Size)
		switch {
		case bp.Size == nil:
			bi.keys = []string{bp.Name}
		case n > 0 && n <= maxArrayInstances:
			for i := int64(0); i < n; i++ {
				bi.keys = append(bi.keys, fmt.Sprintf("%s[%d]", bp.Name, i))
			}
		default:
			bi.keys, bi.summ = []string{bp.Name + "[*]"}, true
		}
		a.bufs[bp.Name] = bi
	}
	for _, bp := range info.Inputs {
		addBuf(bp)
	}
	for _, bp := range info.Outputs {
		addBuf(bp)
	}
	for _, decls := range [][]*ast.VarDecl{info.Globals, info.Locals, info.Monitors} {
		for _, d := range decls {
			if !d.Type.IsArray() {
				continue
			}
			if v := a.constSize(d.Type.Size); v <= maxArrayInstances {
				a.arrSize[d.Name] = v
			} else {
				a.arrSize[d.Name] = -1
			}
		}
	}
	return a
}
