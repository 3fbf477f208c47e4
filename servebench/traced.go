package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/ast"
	"buffy/internal/lang/parser"
	"buffy/internal/lang/sema"
	"buffy/internal/lang/typecheck"
	"buffy/internal/service"
	"buffy/internal/smt/solver"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's ID (0 for a request's root). Times are
// nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(req int64, parent int, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layers are the pipeline stages the traced path spans, in call order.
var layers = []string{"parse", "vet", "compile", "bitblast", "search", "decode"}

// layerCounts are the work counters read at the layer boundaries.
type layerCounts struct {
	astNodes, staticAnswers, terms, vars      int64
	clauses, conflicts, decisions             int64
	propagations, learnt, restarts, learntMem int64
	traces                                    int64
}

func (c *layerCounts) add(o layerCounts) {
	c.astNodes += o.astNodes
	c.staticAnswers += o.staticAnswers
	c.terms += o.terms
	c.vars += o.vars
	c.clauses += o.clauses
	c.conflicts += o.conflicts
	c.decisions += o.decisions
	c.propagations += o.propagations
	c.learnt += o.learnt
	c.restarts += o.restarts
	c.learntMem += o.learntMem
	c.traces += o.traces
}

// tracer answers one-shot queries by calling each layer's public entry
// point in the order core.Program.VerifyContext does, with a span around
// every call.
type tracer struct{ rec *recorder }

func (t *tracer) do(id int64, q *query) outcome {
	o := outcome{path: q.Path}
	start := time.Now()
	status, tr, c, err := t.solve(id, q)
	o.latency = time.Since(start)
	if err != nil {
		o.failed = err.Error()
	} else {
		o.record(q, &service.Result{Status: status, Trace: tr})
	}
	o.work = c
	return o
}

func (t *tracer) solve(id int64, q *query) (string, *smtbe.Trace, layerCounts, error) {
	var c layerCounts
	body := &q.Body
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeoutMS*time.Millisecond)
	defer cancel()
	root := t.rec.begin(id, 0, "request")
	defer t.rec.end(root)
	call := func(name string, f func()) {
		sp := t.rec.begin(id, root, name)
		f()
		t.rec.end(sp)
	}

	var prog *ast.Program
	var info *typecheck.Info
	var err error
	call("parse", func() {
		if prog, err = parser.Parse(body.Source); err == nil {
			info, err = typecheck.Check(prog)
		}
	})
	if err != nil {
		return "", nil, c, err
	}
	c.astNodes = int64(astNodes(prog))

	// The static tier answers the way core's pre-solve gate does: only in
	// the directions over-approximation proves, never for assert-free
	// programs.
	var rep *sema.Report
	call("vet", func() { rep = sema.Analyze(info, sema.Options{T: body.T, Params: body.Params}) })
	mode := smtbe.Verify
	if q.Path == "/v1/witness" {
		mode = smtbe.Witness
	}
	if v := rep.Verdict; v.Reason != sema.ReasonNoAsserts {
		switch {
		case mode == smtbe.Verify && v.Verify == "holds":
			c.staticAnswers = 1
			return "holds", nil, c, nil
		case mode == smtbe.Witness && v.Witness == "no-witness":
			c.staticAnswers = 1
			return "no-witness", nil, c, nil
		}
	}

	model, err := buffer.ModelByName(body.Model)
	if err != nil {
		return "", nil, c, err
	}
	sv := solver.New(solver.Options{})
	var comp *ir.Compiled
	call("compile", func() {
		comp, err = ir.CompileContext(ctx, info, sv.Builder(), ir.Options{Model: model, T: body.T, Params: body.Params})
	})
	if err != nil {
		return "", nil, c, err
	}
	c.terms = int64(sv.Builder().NumTerms())
	if len(comp.Asserts) == 0 {
		return "", nil, c, fmt.Errorf("%s: no assert to check", q.describe())
	}

	call("bitblast", func() {
		for _, a := range comp.Assumes {
			sv.Assert(a)
		}
		if mode == smtbe.Verify {
			sv.Assert(comp.Violation())
		} else {
			sv.Assert(comp.AssertHolds())
			sv.Assert(comp.AssertReached())
		}
	})
	c.vars, c.clauses = int64(sv.NumVars()), int64(sv.NumClauses())

	var res solver.Result
	call("search", func() { res = sv.CheckContextNoModel(ctx) })
	st := sv.Stats()
	c.conflicts, c.decisions, c.propagations = st.Conflicts, st.Decisions, st.Propagations
	c.learnt, c.restarts, c.learntMem = st.Learnt, st.Restarts, st.LearntBytes

	switch {
	case res == solver.Unknown:
		return "unknown", nil, c, nil
	case res == solver.Unsat && mode == smtbe.Verify:
		return "holds", nil, c, nil
	case res == solver.Unsat:
		return "no-witness", nil, c, nil
	}
	var tr *smtbe.Trace
	call("decode", func() {
		sv.SnapshotModel()
		tr = smtbe.ExtractTrace(comp, sv)
	})
	c.traces = 1
	if mode == smtbe.Verify {
		return "counterexample", tr, c, nil
	}
	return "witness", tr, c, nil
}

// astNodes counts the program's syntax nodes: buffer parameters,
// declarations, statements and expressions.
func astNodes(p *ast.Program) int {
	n := 1 + len(p.Params) + len(p.Decls)
	ast.Walk(p.Body, func(ast.Stmt) { n++ })
	ast.WalkExprs(p.Body, func(ast.Expr) { n++ })
	return n
}

// overHTTP wraps the HTTP client in a per-request span, for traced runs
// of the workloads that exercise the service itself.
func (t *tracer) overHTTP(v *env) func(int64, *query) outcome {
	return func(id int64, q *query) outcome {
		sp := t.rec.begin(id, 0, "http")
		o := v.do(id, q)
		t.rec.end(sp)
		return o
	}
}
