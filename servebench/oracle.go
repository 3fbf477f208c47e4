package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"buffy/internal/backend/netcalc"
	"buffy/internal/backend/smtbe"
	"buffy/internal/interp"
	"buffy/internal/qm"
	"buffy/internal/service"
)

// sources names the qm models the workloads query.
var sources = map[string]string{
	"fq-buggy": qm.FQBuggyQuerySrc,
	"fq-fixed": qm.FQFixedQuerySrc,
	"rr":       qm.RRQuerySrc,
	"sp":       qm.SPQuerySrc,
	"shaper":   qm.ShaperSrc,
	"tbrl":     qm.TBRLSrc,
	"sptandem": qm.SPTandemSrc,
	"drr":      qm.DRRSrc,
	"delay":    qm.DelaySrc,
}

// verdictRow is one line of the expected-verdict table: every combination
// of its parameter values, on each listed buffer model, at every horizon
// in [tLo, tHi], must answer want.
type verdictRow struct {
	model    string
	kind     service.Kind
	bufs     []string
	params   map[string][]int64
	tLo, tHi int
	want     string
	cite     string
}

var (
	listOnly = []string{"list"}
	anyBuf   = []string{"list", "count"}
)

// verdictTable is written by hand; each row cites the test, the
// EXPERIMENTS.md row or the property of the query that fixes its answer.
// SAT answers are additionally replayed on the concrete interpreter
// (replayTrace); UNSAT answers rest on this table alone.
var verdictTable = []verdictRow{
	{"fq-buggy", service.KindWitness, anyBuf, map[string][]int64{"N": {2, 3}}, 1, 10, "witness",
		"EXPERIMENTS.md CS1: witness at every horizon; interp TestReplayAgreesWithSolver (N=3, T=6)"},
	{"fq-buggy", service.KindVerify, anyBuf, map[string][]int64{"N": {2, 3}}, 1, 1, "holds",
		"one step dequeues at most one packet, so cdeq1 <= 1 cannot fail at T=1"},
	{"fq-buggy", service.KindVerify, anyBuf, map[string][]int64{"N": {2, 3}}, 2, 10, "counterexample",
		"with queue 0 idle the scheduler serves queue 1 in consecutive steps"},
	{"fq-fixed", service.KindVerify, listOnly, map[string][]int64{"N": {3}}, 4, 6, "counterexample",
		"EXPERIMENTS.md D1: cs1b-fq-fixed verify T=5 is a counterexample"},
	{"fq-fixed", service.KindWitness, anyBuf, map[string][]int64{"N": {3}}, 6, 8, "no-witness",
		"EXPERIMENTS.md CS1b: the RFC 8290 fix admits no starvation witness at T >= 6"},
	// Round robin serves queue 1 at least once every N steps while it has
	// demand, so "served at most once" is reachable only while T <= N+1.
	{"rr", service.KindWitness, anyBuf, map[string][]int64{"N": {2}}, 1, 3, "witness",
		"qm.RRQuerySrc: queue 1 is served at least every N steps; T <= N+1 leaves room for one service"},
	{"rr", service.KindWitness, anyBuf, map[string][]int64{"N": {2}}, 4, 16, "no-witness",
		"EXPERIMENTS.md A1: no-witness on every buffer model (N=2, T=6)"},
	{"rr", service.KindWitness, anyBuf, map[string][]int64{"N": {3}}, 1, 4, "witness",
		"qm.RRQuerySrc: T <= N+1 leaves room for a single service of queue 1"},
	{"rr", service.KindWitness, anyBuf, map[string][]int64{"N": {3}}, 5, 10, "no-witness",
		"qm.RRQuerySrc: two services of queue 1 are forced once T >= N+2"},
	{"rr", service.KindWitness, anyBuf, map[string][]int64{"N": {4}}, 1, 5, "witness",
		"qm.RRQuerySrc: T <= N+1 leaves room for a single service of queue 1"},
	{"rr", service.KindVerify, anyBuf, map[string][]int64{"N": {2, 3, 4}}, 1, 1, "holds",
		"one step dequeues at most one packet"},
	{"rr", service.KindVerify, anyBuf, map[string][]int64{"N": {2, 3, 4}}, 2, 16, "counterexample",
		"with the other queues idle round robin serves queue 1 every step"},
	{"sp", service.KindWitness, anyBuf, map[string][]int64{"N": {2, 3, 4}}, 1, 8, "witness",
		"qm.SPQuerySrc: strict priority starves queue 1 by design; interp TestReplayAgreesWithSolver (N=2, T=5)"},
	{"sp", service.KindVerify, anyBuf, map[string][]int64{"N": {2, 3, 4}}, 1, 1, "holds",
		"one step dequeues at most one packet"},
	{"sp", service.KindVerify, anyBuf, map[string][]int64{"N": {2, 3, 4}}, 2, 8, "counterexample",
		"with queue 0 idle strict priority serves queue 1 every step"},
	{"shaper", service.KindVerify, listOnly, map[string][]int64{"RATE": {1, 2, 3}, "BURST": {1, 2, 3, 4}}, 1, 12, "holds",
		"qm TestShaperEnvelopeHolds; EXPERIMENTS.md W1 (RATE=2 BURST=3 to T=12)"},
	{"shaper", service.KindWitness, listOnly, map[string][]int64{"RATE": {1, 2, 3}, "BURST": {1, 2, 3, 4}}, 1, 12, "witness",
		"the asserts are unconditional and hold on every execution, so every execution is a witness"},
	{"tbrl", service.KindVerify, listOnly, map[string][]int64{"RATE": {1, 2}, "BURST": {1, 2, 3}, "C": {2, 3}}, 1, 8, "holds",
		"qm TestNetcalcModelsInvariantsHold; EXPERIMENTS.md W1; the invariant needs RATE <= C"},
	{"tbrl", service.KindWitness, listOnly, map[string][]int64{"RATE": {1, 2}, "BURST": {1, 2, 3}, "C": {2, 3}}, 1, 8, "witness",
		"the asserts are unconditional and hold on every execution"},
	{"sptandem", service.KindVerify, listOnly, map[string][]int64{"RH": {1}, "BH": {2}, "RV": {1}, "BV": {2}, "C": {3}}, 1, 5, "holds",
		"qm TestNetcalcModelsInvariantsHold; EXPERIMENTS.md W1"},
	{"sptandem", service.KindWitness, listOnly, map[string][]int64{"RH": {1}, "BH": {2}, "RV": {1}, "BV": {2}, "C": {3}}, 1, 5, "witness",
		"the asserts are unconditional and hold on every execution"},
	{"drr", service.KindVerify, listOnly, map[string][]int64{"N": {2}, "Q": {1, 2, 3}}, 1, 6, "holds",
		"qm TestDRRWorkConservation (Q=2); work conservation does not depend on the quantum"},
	{"drr", service.KindWitness, listOnly, map[string][]int64{"N": {2}, "Q": {1, 2, 3}}, 1, 6, "witness",
		"the work-conservation assert is unconditional and holds on every execution"},
}

// boundTable holds the analytical bounds EXPERIMENTS.md N1 reports for
// the netcalc corpus (netcalc.Corpus); delays in steps, backlogs in packets.
var boundTable = map[string]expect{
	"tbrl":     {Status: "bounded", Delay: "3/2", Backlog: "3"},
	"sptandem": {Status: "bounded", Delay: "3", Backlog: "4"},
	"shaper":   {Status: "bounded", Delay: "1", Backlog: "2"},
	"delay":    {Status: "bounded", Delay: "1", Backlog: "2"},
	"sp":       {Status: "unbounded"},
	"rr":       {Status: "unbounded"},
	"drr":      {Status: "unbounded"},
}

func bufName(model string) string {
	if model == "" {
		return "list"
	}
	return model
}

// lookup finds the table row answering one one-shot query.
func lookup(model string, kind service.Kind, buf string, params map[string]int64, t int) (verdictRow, error) {
	for _, row := range verdictTable {
		if row.model != model || row.kind != kind || t < row.tLo || t > row.tHi || !slices.Contains(row.bufs, buf) {
			continue
		}
		if covers(row.params, params) {
			return row, nil
		}
	}
	return verdictRow{}, fmt.Errorf("no expected verdict for %s %s model=%s %v T=%d", model, kind, buf, params, t)
}

func covers(set map[string][]int64, params map[string]int64) bool {
	if len(set) != len(params) {
		return false
	}
	for name, v := range params {
		if !slices.Contains(set[name], v) {
			return false
		}
	}
	return true
}

// oneShot builds a verify/witness query and its expected answer.
func oneShot(model string, kind service.Kind, buf string, params map[string]int64, t int) query {
	row, err := lookup(model, kind, buf, params, t)
	if err != nil {
		panic(err) // the workload registry names a query the table lacks
	}
	req := service.Request{Source: sources[model], T: t, Params: params, TimeoutMS: requestTimeoutMS}
	if buf != "list" {
		req.Model = buf
	}
	return query{Path: "/v1/" + string(kind), Model: model, Body: req, Want: expect{Status: row.want}, cite: row.cite}
}

// sweep builds a /v1/sweep query. Its expected answer follows from the
// one-shot rows: the sweep stops at the first horizon whose answer carries
// a trace (witness or counterexample), else reports the answer at maxT.
func sweep(model, buf string, params map[string]int64, maxT int, mode service.Kind) query {
	q := query{Path: "/v1/sweep", Model: model, Body: service.Request{
		Source: sources[model], MaxT: maxT, Params: params, SweepMode: string(mode), TimeoutMS: requestTimeoutMS,
	}}
	if buf != "list" {
		q.Body.Model = buf
	}
	for t := 1; t <= maxT; t++ {
		row, err := lookup(model, mode, buf, params, t)
		if err != nil {
			panic(err)
		}
		q.Want, q.cite = expect{Status: row.want}, row.cite
		if hasTrace(row.want) {
			q.Want.FoundAt = t
			break
		}
	}
	return q
}

// boundQueries are /v1/bound requests over the netcalc corpus.
func boundQueries() []query {
	var qs []query
	for _, e := range netcalc.Corpus() {
		want, ok := boundTable[e.Name]
		if !ok {
			panic("no expected bound for netcalc corpus entry " + e.Name)
		}
		qs = append(qs, query{Path: "/v1/bound", Model: e.Name, Want: want, cite: "EXPERIMENTS.md N1", Body: service.Request{
			Source: e.Src, T: e.T, Params: e.Params, ArrivalsPerStep: e.Arrivals, TimeoutMS: requestTimeoutMS,
		}})
	}
	return qs
}

func hasTrace(status string) bool { return status == "witness" || status == "counterexample" }

// checkResult compares an analysis result with the query's expectation
// and returns the disagreement, or "" when the answer is right.
func (q *query) checkResult(res *service.Result) string {
	got := expect{Status: res.Status}
	switch q.Path {
	case "/v1/sweep":
		got.FoundAt = res.FoundAt
	case "/v1/bound":
		got.Delay, got.Backlog = res.Delay, res.Backlog
	}
	if got != q.Want {
		return fmt.Sprintf("%s %s: got %+v, want %+v (%s)", q.Path, q.describe(), got, q.Want, q.cite)
	}
	return ""
}

// checkVet requires a clean vet answer whose static verdicts, when it
// gives any, agree with the table.
func (q *query) checkVet(v *service.VetResponse) string {
	if v.Rejected {
		return fmt.Sprintf("/v1/vet %s: rejected: %s", q.describe(), v.Summary)
	}
	buf := bufName(q.Body.Model)
	for _, c := range []struct {
		kind   service.Kind
		static string
	}{{service.KindVerify, v.Verify}, {service.KindWitness, v.Witness}} {
		if c.static == "" {
			continue
		}
		row, err := lookup(q.Model, c.kind, buf, q.Body.Params, q.Body.T)
		if err == nil && row.want != c.static {
			return fmt.Sprintf("/v1/vet %s: static %s %s, table says %s (%s)", q.describe(), c.kind, c.static, row.want, row.cite)
		}
	}
	return ""
}

func (q *query) describe() string {
	names := make([]string, 0, len(q.Body.Params))
	for n := range q.Body.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(q.Model)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, q.Body.Params[n])
	}
	fmt.Fprintf(&b, " model=%s T=%d", bufName(q.Body.Model), q.Body.T)
	if q.Body.MaxT > 0 {
		fmt.Fprintf(&b, " maxT=%d mode=%s", q.Body.MaxT, q.Body.SweepMode)
	}
	return b.String()
}

// replayTrace re-executes a SAT answer's trace on the concrete interpreter
// (internal/interp), which shares no code with the compiler or solver: the
// end state must match the solver's observations, a witness must pass
// every assert and a counterexample must fail one.
func replayTrace(q *query, status string, t int, tr *smtbe.Trace) error {
	info, err := qm.Load(q.Body.Source)
	if err != nil {
		return err
	}
	m, err := interp.Replay(info, interp.Options{T: t, Params: q.Body.Params}, tr)
	if err != nil {
		return fmt.Errorf("replay %s: %w", q.describe(), err)
	}
	if diffs := interp.Diff(m, tr); len(diffs) > 0 {
		return fmt.Errorf("replay %s: interpreter disagrees with the solver: %v", q.describe(), diffs)
	}
	switch failed := len(m.Failures()) > 0; {
	case status == "witness" && failed:
		return fmt.Errorf("replay %s: witness fails an assert: %v", q.describe(), m.Failures())
	case status == "counterexample" && !failed:
		return fmt.Errorf("replay %s: counterexample passes every assert", q.describe())
	}
	return nil
}
