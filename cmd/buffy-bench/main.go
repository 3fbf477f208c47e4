// Command buffy-bench regenerates every table and figure of the paper's
// evaluation, plus this repository's ablations and extensions. Each
// experiment prints the same rows/series the paper reports and exits
// non-zero when its verdict contradicts the paper or one of its gates
// fails; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
//	buffy-bench -exp cs1      # one experiment (buffy-bench -h lists them)
//	buffy-bench -exp all      # every experiment, writing BENCH_trajectory.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

var experiments = []struct {
	name string
	desc string
	run  func() error
}{
	{"table1", "Table 1 — FPerf vs Buffy lines of code", runTable1},
	{"fig6", "Figure 6 — Dafny verification time vs T", runFig6},
	{"cs1", "§6.1 — FQ scheduler starvation witness (buggy)", runCS1},
	{"cs1b", "extension — RFC 8290 fix removes the witness", runCS1b},
	{"cs2", "§6.2 — CCAC ack-burst loss via composition", runCS2},
	{"s1", "extension — full pipeline vs hand-written FPerf-style encoding", runS1},
	{"a1", "ablation — buffer-model precision (list vs count vs multiclass)", runA1},
	{"a2", "ablation — modular k-induction vs monolithic BMC", runA2},
	{"a3", "extension — Houdini invariant inference (§5)", runA3},
	{"a4", "extension — throughput vs ack-path delay (composed instances)", runA4},
	{"portfolio", "extension — portfolio vs single-config solver (first-wins race)", runPortfolioExp},
	{"stages", "extension — per-stage cost breakdown across the corpus (telemetry spans)", runStages},
	{"netcalc", "extension — network-calculus bounds (µs) vs SMT differential certification", runNetcalc},
	{"vet", "extension — static tier latency (µs) vs solver time saved", runVetExp},
	{"sweep", "extension — warm-session sweep vs cold per-horizon solves", runSweepExp},
	{"store", "extension — durable result store: disk-hit vs cold-solve across a restart", runStoreExp},
	{"trajectory", "extension — benchmark trajectory: median/IQR probes + work counters for buffy-benchdiff", runTrajectory},
}

// expUsage is the -exp help text, built from the experiment table.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiment to run:")
	for _, e := range experiments {
		fmt.Fprintf(&b, "\n%-10s  %s", e.name, e.desc)
	}
	fmt.Fprintf(&b, "\n%-10s  %s", "all", "every experiment above, in order")
	return b.String()
}

func main() {
	exp := flag.String("exp", "all", expUsage())
	flag.Parse()
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "buffy-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "buffy-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
