// Command buffy-benchdiff is the perf regression gate: it compares two
// BENCH_trajectory.json files written by `buffy-bench -exp trajectory`
// and exits nonzero when the candidate run regressed past the
// noise-aware thresholds.
//
//	buffy-bench -exp trajectory -trajectory-out /tmp/new.json
//	buffy-benchdiff BENCH_trajectory.json /tmp/new.json
//
// Deterministic solver work counters (conflicts, propagations, learnt
// clauses from fixed-seed single-config solves) gate hard at +30% on any
// machine; counters below 500 only inform. Wall-clock medians gate softly — only when the two runs'
// machine fingerprints match, only above 20ms, and only when the delta
// clears both +50% and three times the larger run's IQR. An experiment
// present in the baseline but missing from the candidate is itself a
// regression.
//
// Exit status: 0 no regression, 1 regression, 2 usage or unreadable
// input.
package main

import (
	"flag"
	"fmt"
	"os"

	"buffy/internal/bench"
)

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: buffy-benchdiff BASELINE.json CANDIDATE.json")
		os.Exit(2)
	}
	os.Exit(run(flag.Arg(0), flag.Arg(1)))
}

// run loads both trajectories, diffs them, and reports; split from main
// so tests can drive the gate end-to-end on fixture files and assert
// the exit code.
func run(basePath, candPath string) int {
	base, err := bench.Load(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "buffy-benchdiff: baseline: %v\n", err)
		return 2
	}
	cand, err := bench.Load(candPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "buffy-benchdiff: candidate: %v\n", err)
		return 2
	}
	regressions, notes := bench.Diff(base, cand)
	fmt.Printf("baseline:  %s (rev %s, go %s, %s/%s P=%d)\n",
		basePath, orNone(base.GitRev), base.GoVersion, base.OS, base.Arch, base.GOMAXPROCS)
	fmt.Printf("candidate: %s (rev %s, go %s, %s/%s P=%d)\n",
		candPath, orNone(cand.GitRev), cand.GoVersion, cand.OS, cand.Arch, cand.GOMAXPROCS)
	for _, n := range notes {
		fmt.Printf("note: %s\n", n)
	}
	if len(regressions) == 0 {
		fmt.Printf("ok: %d experiments within thresholds\n", len(base.Experiments))
		return 0
	}
	for _, r := range regressions {
		fmt.Printf("REGRESSION %s\n", r)
	}
	fmt.Printf("%d regression(s)\n", len(regressions))
	return 1
}

func orNone(rev string) string {
	if rev == "" {
		return "unknown"
	}
	return rev
}
