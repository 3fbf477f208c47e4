// Trace walkthrough: run one deliberately slow analysis — the §6.1
// FQ-CoDel starvation witness at T=6 — with span tracing enabled, print
// the recorded span tree, and read the stage breakdown off it.
//
// The same tree is what `buffyc -trace` prints, what buffy-serve returns
// from GET /v1/jobs/{id}/trace, and what feeds the per-stage Prometheus
// histograms (buffy_stage_duration_seconds{stage}); `buffy-bench -exp
// stages` aggregates it across the whole corpus. See "Observability" in
// DESIGN.md for the span model.
//
//	go run ./examples/trace-walkthrough
package main

import (
	"context"
	"fmt"
	"log"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

func main() {
	// 1. Attach a trace to the context; every pipeline layer below —
	// parser, IR compiler, bit-blaster, CDCL search — records spans into
	// it. Without a trace on the context the same code paths cost one nil
	// check per span site.
	tr := telemetry.NewTraceN("fq-starvation", 4096)
	ctx := telemetry.WithTrace(context.Background(), tr)

	_, psp := telemetry.StartSpan(ctx, "parse")
	prog, err := core.Parse(qm.FQBuggyQuerySrc)
	psp.End()
	if err != nil {
		log.Fatal(err)
	}

	// 2. The slow query: find the starvation witness at horizon T=6 with
	// N=3 flows. Encoding and search cost about the same at this size
	// (~35k clauses, ~1,200 conflicts).
	res, err := prog.Check(ctx, core.Analysis{
		T: 6, Params: map[string]int64{"N": 3},
	}, smtbe.Witness)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %v in %.3fs (%d conflicts)\n\n",
		prog.Name(), res.Status, res.Duration.Seconds(), res.SatStats.Conflicts)

	// 3. The span tree. Indentation is parentage; attributes carry the
	// stage-specific facts: terms for compile, clauses and vars for
	// bitblast, the result and the CDCL effort counters for search.
	fmt.Print(tr.Snapshot().Render())

	// 4. The same trace, reduced to a stage breakdown: Durations() sums
	// ended spans by name — this is exactly the fold buffy-serve applies
	// into its buffy_stage_duration_seconds histograms.
	durs := tr.Durations()
	fmt.Println("\nstage breakdown:")
	for _, stage := range []string{"parse", "vet", "compile", "bitblast", "search"} {
		fmt.Printf("  %-10s %8.1fms\n", stage, float64(durs[stage].Microseconds())/1000)
	}
}
