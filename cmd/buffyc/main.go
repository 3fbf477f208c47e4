// Command buffyc is the Buffy compiler and analysis driver: it parses a
// Buffy program and runs one of the framework's back-ends against it.
//
//	buffyc -mode verify   -T 6 -param N=3 sched.buffy   # BMC: asserts hold?
//	buffyc -mode witness  -T 6 -param N=3 sched.buffy   # find a query witness
//	buffyc -mode sweep -maxT 8 -param N=3 sched.buffy   # minimal-horizon sweep
//	                                                     # on one warm session
//	buffyc -mode synth    -T 5 -param N=2 sched.buffy   # FPerf-style workload
//	buffyc -mode bound -param RATE=1 -param BURST=3 -param C=2 tbrl.buffy
//	                                                     # analytical bounds (µs)
//	buffyc -mode bound -crosscheck -T 6 ... tbrl.buffy   # + SMT differential
//	buffyc -mode dafny    -T 4 -param N=3 sched.buffy   # emit Dafny source
//	buffyc -mode dafny-verify -T 4 -param N=3 sched.buffy
//	buffyc -mode smtlib   -T 3 sched.buffy               # emit SMT-LIB v2
//	buffyc -mode invariants -param C=2 -param B=2 path.buffy
//	buffyc -mode fmt sched.buffy                         # canonical formatting
//	buffyc -mode vet -T 6 sched.buffy                    # static analysis only
//
// Vet (static analysis) runs parse -> typecheck -> abstract
// interpretation and prints structured diagnostics with source excerpts;
// exit status 1 when any error-severity finding exists, 0 otherwise
// (warnings and infos do not fail the invocation unless -vet-strict).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/lang/ast"
	"buffy/internal/lang/sema"
	"buffy/internal/lang/typecheck"
	"buffy/internal/portfolio"
	"buffy/internal/session"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
	"buffy/internal/telemetry"
	"buffy/internal/workload"
)

type paramFlags map[string]int64

func (p paramFlags) String() string { return fmt.Sprintf("%v", map[string]int64(p)) }

func (p paramFlags) Set(s string) error {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	v, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("parameter %s: %v", parts[0], err)
	}
	p[parts[0]] = v
	return nil
}

func main() {
	params := paramFlags{}
	mode := flag.String("mode", "verify", "verify | witness | sweep | synth | bound | vet | dafny | dafny-verify | smtlib | invariants | fmt")
	crossCheck := flag.Bool("crosscheck", false, "differentially validate the netcalc bounds against the SMT backend at horizon T (mode bound)")
	vetStrict := flag.Bool("vet-strict", false, "mode vet: exit nonzero on warnings too, not just errors (the CI corpus gate)")
	T := flag.Int("T", 4, "time horizon (steps)")
	maxT := flag.Int("maxT", 8, "mode sweep: deepest horizon to try (warm session capacity)")
	sweepWitness := flag.Bool("sweep-witness", false, "mode sweep: sweep the witness direction instead of verify")
	model := flag.String("model", "list", "buffer model: list | count | multiclass")
	width := flag.Int("width", 0, "solver integer bit width (default 12)")
	arrivals := flag.Int("arrivals", 0, "max arrivals per input buffer per step (default 1)")
	cap := flag.Int("cap", 0, "buffer capacity (default 8)")
	planOut := flag.String("trace-out", "", "save the discovered trace as a replayable arrival plan (JSON)")
	stats := flag.Bool("stats", false, "print solver effort statistics (conflicts, decisions, propagations)")
	showTrace := flag.Bool("trace", false, "record a span trace of the analysis pipeline and print the tree (parse, compile, bitblast, search) and its work counters")
	traceJSON := flag.Bool("trace-json", false, "record a span trace and print it as OTLP-shaped JSON (the exporter's wire format) instead of the tree")
	explain := flag.Bool("explain", false, "record solver search introspection and render the report: effort timelines, restart/simplify marks, depth/LBD histograms, per-config breakdown")
	nPortfolio := flag.Int("portfolio", 0, "race N diversified solver configs, first conclusive answer wins (verify/witness; 0 = single solver)")
	maxConflicts := flag.Int64("max-conflicts", 0, "per-solve conflict budget (0 = unlimited; exhaustion reports unknown)")
	maxProps := flag.Int64("max-propagations", 0, "per-solve propagation budget, a CPU-effort proxy (0 = unlimited)")
	maxLearnt := flag.Int64("max-learnt-bytes", 0, "learnt-clause memory budget per solve, estimated bytes (0 = unlimited)")
	flag.Var(params, "param", "compile-time parameter, name=value (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: buffyc [flags] program.buffy")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	// Vet is pure front-end static analysis: it must render parse and
	// type errors as diagnostics instead of dying on them, and it works
	// with unbound parameters, so it branches before core.Parse and the
	// missing-params check.
	bounds := typecheck.Bounds{ArrivalsPerStep: *arrivals, BufferCap: *cap}
	if *mode == "vet" {
		runVet(flag.Arg(0), string(src), sema.Options{
			T: *T, Params: params, Width: *width, Bounds: bounds,
		}, *vetStrict)
		return
	}

	// With -trace, every pipeline layer records spans into tr; the tree is
	// printed after the analysis (see printTrace). -trace-json records the
	// same spans but prints the exporter's OTLP JSON instead.
	ctx := context.Background()
	var tr *telemetry.Trace
	if *showTrace || *traceJSON {
		tr = telemetry.NewTraceN(flag.Arg(0), 4096)
		ctx = telemetry.WithTrace(ctx, tr)
	}

	// With -explain, the solver publishes into progress; its report is
	// rendered after the analysis (see printExplain).
	var progress *sat.Progress
	if *explain {
		progress = &sat.Progress{}
		ctx = solver.WithProgress(ctx, progress)
	}

	_, psp := telemetry.StartSpan(ctx, "parse")
	prog, err := core.Parse(string(src))
	psp.End()
	if err != nil {
		fatal(err)
	}
	if missing := missingParams(prog, params); len(missing) > 0 && *mode != "fmt" {
		fatal(fmt.Errorf("program %s needs -param values for: %s",
			prog.Name(), strings.Join(missing, ", ")))
	}
	a := core.Analysis{
		T: *T, Params: params, Model: *model, Width: *width, Bounds: bounds,
		Portfolio:    *nPortfolio,
		MaxConflicts: *maxConflicts, MaxPropagations: *maxProps, MaxLearntBytes: *maxLearnt,
	}

	winner := "" // the portfolio config that answered, for -explain
	switch *mode {
	case "verify", "witness":
		qmode := smtbe.Verify
		if *mode == "witness" {
			qmode = smtbe.Witness
		}
		pr, err := prog.Check(ctx, a, qmode)
		if err != nil {
			fatal(err)
		}
		printCheck(prog.Name(), pr, *stats, *planOut)
		winner = pr.Winner
	case "sweep":
		runSweep(ctx, prog, a, *maxT, *sweepWitness, *stats, *planOut)
	case "synth":
		res, err := prog.Synthesize(ctx, a)
		if err != nil {
			fatal(err)
		}
		switch {
		case res.Found:
			fmt.Printf("%s: workload synthesized in %.3fs (%d checks):\n  %v\n",
				prog.Name(), res.Duration.Seconds(), res.Checks, res.Workload)
		case res.Inconclusive:
			fmt.Printf("%s: synthesis inconclusive — solver budget exhausted (%d checks)\n",
				prog.Name(), res.Checks)
		default:
			fmt.Printf("%s: no workload guarantees the query\n", prog.Name())
		}
	case "bound":
		a.CrossCheck = *crossCheck
		res, err := prog.Bound(ctx, a)
		if err != nil {
			fatal(err)
		}
		if !res.Bounded {
			fmt.Printf("%s: flow %s is unbounded — the topology offers it no service guarantee\n",
				prog.Name(), res.Victim)
		} else {
			fmt.Printf("%s: flow %s delay <= %s steps, backlog <= %s pkts (%v)\n",
				prog.Name(), res.Victim, res.Delay.RatString(), res.Backlog.RatString(), res.Duration)
		}
		for _, fb := range res.Flows {
			fmt.Printf("  %-8s %s\n", fb.Flow, fb.String())
		}
		if cc := res.CrossCheck; cc != nil {
			fmt.Printf("cross-check: %s at T=%d (%v)\n", cc.Status, cc.T, cc.Duration)
		}
	case "dafny":
		out, err := prog.GenerateDafny(a)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "dafny-verify":
		res, err := prog.VerifyDafny(ctx, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: verified=%v (%.3fs, %d VCs)\n",
			prog.Name(), res.Verified, res.Duration.Seconds(), len(res.VCs))
		for _, vc := range res.VCs {
			status := "ok"
			if !vc.Holds {
				status = "FAILS"
			}
			fmt.Printf("  assert at %v (step %d): %s (%.3fs)\n", vc.Pos, vc.Step, status, vc.Duration.Seconds())
		}
	case "fmt":
		fmt.Print(ast.Format(prog.Info.Prog))
	case "smtlib":
		out, err := prog.SMTLib(a)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "invariants":
		res, err := prog.InferInvariants(ctx, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: Houdini kept %d of %d candidates (%d rounds, %d checks, %.3fs)\n",
			prog.Name(), len(res.Survivors), len(res.Survivors)+len(res.Dropped),
			res.Rounds, res.Checks, res.Duration.Seconds())
		for _, c := range res.Survivors {
			fmt.Printf("  invariant: %s\n", c.Name)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	printExplain(progress, winner)
	printTrace(tr, *traceJSON)
}

// printTrace renders the recorded span tree and the work counters folded
// from it after the analysis output (a no-op without -trace/-trace-json). With asJSON it prints the exporter's
// OTLP wire format instead, so `buffyc -trace-json | jq` shows exactly
// what buffy-serve -otlp-endpoint would push to a collector.
func printTrace(tr *telemetry.Trace, asJSON bool) {
	if tr == nil {
		return
	}
	snap := tr.Snapshot()
	if asJSON {
		req := telemetry.OTLPExportRequest{ResourceSpans: []telemetry.OTLPResourceSpans{
			telemetry.OTLPFromView(snap, telemetry.String("service.name", "buffyc")),
		}}
		data, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Print(snap.Render())
	// The layer work counters, summed over the spans as the trajectory
	// probes and /metrics sum them.
	work := tr.Work()
	keys := make([]string, 0, len(work))
	for k := range work {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if len(keys) > 0 {
		fmt.Println("work:")
	}
	for _, k := range keys {
		fmt.Printf("  %-26s %d\n", k, work[k])
	}
}

// printExplain renders the -explain search report after the analysis
// output (a no-op without -explain or when no solver ran). winner names
// the portfolio config that produced the answer, "" outside a race.
func printExplain(progress *sat.Progress, winner string) {
	rep := progress.Report()
	if rep == nil || rep.Totals.Solves == 0 {
		return
	}
	rep.SetWinner(winner)
	fmt.Print(rep.Render())
}

func missingParams(p *core.Program, have map[string]int64) []string {
	var out []string
	for _, name := range p.Params() {
		if _, ok := have[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

// runSweep answers -mode sweep: solve horizons 1..maxT in order on one
// warm solver session (assumption-based re-solve, learnt clauses shared
// across horizons) until a trace appears, printing each horizon's verdict
// as it lands. Programs whose encoding shape depends on T fall back to
// cold per-horizon solves — same answers, no reuse.
func runSweep(ctx context.Context, prog *core.Program, a core.Analysis, maxT int, witness, stats bool, planOut string) {
	mode := smtbe.Verify
	if witness {
		mode = smtbe.Witness
	}
	sr, err := prog.Sweep(ctx, a, session.SweepOptions{
		MaxT: maxT, Mode: mode,
		OnVerdict: func(v session.Verdict) {
			how := "warm"
			if !v.Warm {
				how = "cold"
			}
			fmt.Printf("  T=%-3d %-15v %8.3fs  %s (%d conflicts)\n",
				v.T, v.Status, v.Duration.Seconds(), how, v.Conflicts)
		},
	})
	if err != nil {
		fatal(err)
	}
	switch {
	case sr.FoundAt > 0:
		fmt.Printf("%s: %v at minimal horizon T=%d (%.3fs total)\n",
			prog.Name(), sr.Final.Status, sr.FoundAt, sr.Duration.Seconds())
	default:
		fmt.Printf("%s: %v up to T=%d (%.3fs total)\n",
			prog.Name(), sr.Final.Status, maxT, sr.Duration.Seconds())
	}
	printStats(stats, sr.Final)
	if sr.Final.Trace != nil {
		fmt.Print(sr.Final.Trace)
		savePlan(planOut, sr.Final.Trace)
	}
}

// printCheck renders a verify or witness answer: the verdict with the
// encoding size, the race table when a -portfolio race ran (the winner
// starred), then the trace and the final monitor and global values.
func printCheck(name string, pr *portfolio.Result, stats bool, planOut string) {
	fmt.Printf("%s: %v (%.3fs, %d clauses, %d vars, %d conflicts)\n",
		name, pr.Status, pr.WallClock.Seconds(), pr.NumClauses, pr.NumVars, pr.SatStats.Conflicts)
	if len(pr.Runs) > 0 {
		fmt.Printf("portfolio of %d, winner %s:\n", len(pr.Runs), pr.Winner)
	}
	for _, run := range pr.Runs {
		marker := " "
		if run.Name == pr.Winner {
			marker = "*"
		}
		fmt.Printf(" %s %-14s %-8v %.3fs", marker, run.Name, run.Status, run.Duration.Seconds())
		if stats {
			fmt.Printf("  conflicts=%d decisions=%d restarts=%d",
				run.Stats.Conflicts, run.Stats.Decisions, run.Stats.Restarts)
		}
		if run.Err != "" {
			fmt.Printf("  error=%s", run.Err)
		}
		fmt.Println()
	}
	printStats(stats, pr.Result)
	if pr.Trace == nil {
		return
	}
	fmt.Print(pr.Trace)
	savePlan(planOut, pr.Trace)
	if len(pr.Trace.Vars) > 0 {
		fmt.Println("final monitors/globals:")
		for k, v := range pr.Trace.Vars[len(pr.Trace.Vars)-1] {
			fmt.Printf("  %s = %d\n", k, v)
		}
	}
}

// printStats renders the solver-effort counters behind the -stats flag,
// and always explains an Unknown outcome's stop reason (which budget was
// exhausted, or that the deadline/cancellation fired).
func printStats(enabled bool, res *smtbe.Result) {
	if res != nil && res.Status == smtbe.Unknown && res.Stop.String() != "" {
		if res.Stop.Budget() {
			fmt.Printf("search stopped: %s budget exhausted (raise -max-conflicts / -max-propagations / -max-learnt-bytes to search further)\n", res.Stop)
		} else {
			fmt.Printf("search stopped: %s\n", res.Stop)
		}
	}
	if !enabled || res == nil {
		return
	}
	s := res.SatStats
	fmt.Printf("solver stats: conflicts=%d decisions=%d propagations=%d restarts=%d learnt=%d removed=%d\n",
		s.Conflicts, s.Decisions, s.Propagations, s.Restarts, s.Learnt, s.Removed)
	fmt.Printf("encoding: %d clauses, %d vars\n", res.NumClauses, res.NumVars)
}

// savePlan writes a trace's arrivals as a buffy-run replayable plan.
func savePlan(path string, tr *smtbe.Trace) {
	if path == "" {
		return
	}
	data, err := workload.FromTrace(tr).Marshal()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("trace saved as arrival plan: %s (replay with buffy-run -plan)\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "buffyc:", err)
	os.Exit(1)
}
