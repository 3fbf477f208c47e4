package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"buffy/internal/core"
	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

// runStages reports the per-stage cost breakdown (parse, static vet,
// compile, bitblast, encode bookkeeping, CDCL search) across the example
// corpus, using the telemetry tracer threaded through the pipeline. The
// columns are the layer names the trace and /metrics use. This is the
// observability counterpart of the scalability ablations: it shows where
// the wall clock goes as queries grow, which is what the paper's
// solver-time discussion (and FPerf's) is about.
func runStages() error {
	cases := []struct {
		name   string
		src    string
		kind   string
		t      int
		params map[string]int64
		model  string
	}{
		{"fq-witness", qm.FQBuggyQuerySrc, "witness", 6, map[string]int64{"N": 3}, ""},
		{"rr-witness", qm.RRQuerySrc, "witness", 6, map[string]int64{"N": 2}, ""},
		{"rr-count", qm.RRQuerySrc, "witness", 6, map[string]int64{"N": 2}, "count"},
		{"sp-verify", qm.SPQuerySrc, "verify", 5, map[string]int64{"N": 2}, ""},
	}
	// Stages in pipeline order; everything else a trace records (portfolio
	// configs, ...) is folded into "other".
	stages := []string{"parse", "vet", "compile", "bitblast", "encode", "search"}

	fmt.Printf("%-12s  %8s", "program", "total")
	for _, s := range stages {
		fmt.Printf("  %9s", s)
	}
	fmt.Printf("  %9s\n", "other")

	for _, c := range cases {
		tr := telemetry.NewTraceN(c.name, 4096)
		ctx := telemetry.WithTrace(context.Background(), tr)

		_, psp := telemetry.StartSpan(ctx, "parse")
		prog, err := core.Parse(c.src)
		psp.End()
		if err != nil {
			return err
		}
		a := core.Analysis{T: c.t, Params: c.params, Model: c.model}
		start := time.Now()
		switch c.kind {
		case "verify":
			_, err = prog.VerifyContext(ctx, a)
		default:
			_, err = prog.FindWitnessContext(ctx, a)
		}
		if err != nil {
			return err
		}
		total := time.Since(start)

		durs := tr.Durations()
		// compile and bitblast are children of encode; report encode as
		// the residue so the columns are disjoint and sum to the pipeline.
		if enc, ok := durs["encode"]; ok {
			durs["encode"] = enc - durs["compile"] - durs["bitblast"]
		}
		var other time.Duration
		for name, d := range durs {
			if !slices.Contains(stages, name) {
				other += d
			}
		}

		fmt.Printf("%-12s  %7.3fs", c.name, total.Seconds())
		for _, s := range stages {
			fmt.Printf("  %8.3fs", durs[s].Seconds())
		}
		fmt.Printf("  %8.3fs\n", other.Seconds())
	}
	fmt.Println("(compile+bitblast are encode's children and reported separately; encode is the residue.")
	fmt.Println(" search dominates as horizons grow — the breakdown /metrics exports as buffy_stage_duration_seconds)")
	return nil
}
