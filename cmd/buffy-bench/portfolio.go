package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/qm"
)

// portfolioSizes are the race widths the experiment compares against the
// single classic config. Size 2 is the minimal hedge (classic plus its
// best-measured complement); size 4 is the service/CLI default.
var portfolioSizes = []int{2, 4}

// runPortfolioExp compares the single classic-config solver against
// portfolios of diversified configurations on the case-study queries:
// same answers on every row, and the race's wall clock is the first
// conclusive config's, so examples where a non-classic heuristic wins
// show a speedup > 1. On a single-CPU host the racing searches time-slice
// one core, so a width-N race only wins where some config beats classic
// by more than Nx; with real parallelism every fast-config win shows.
func runPortfolioExp() error {
	examples := []struct {
		name   string
		src    string
		mode   smtbe.Mode
		t      int
		params map[string]int64
	}{
		{"cs1-fq-starvation", qm.FQBuggyQuerySrc, smtbe.Witness, 8, map[string]int64{"N": 3}},
		{"sp-starvation", qm.SPQuerySrc, smtbe.Witness, 6, map[string]int64{"N": 3}},
		{"rr-no-starvation", qm.RRQuerySrc, smtbe.Witness, 6, map[string]int64{"N": 2}},
		{"shaper-envelope", qm.ShaperSrc, smtbe.Verify, 5, map[string]int64{"RATE": 2, "BURST": 3}},
	}

	ctx := context.Background()
	wins := 0
	fmt.Printf("%-20s  %-8s  %5s  %10s  %10s  %8s  %-14s\n",
		"example", "mode", "width", "single", "portfolio", "speedup", "winner")
	for _, ex := range examples {
		prog, err := core.Parse(ex.src)
		if err != nil {
			return err
		}
		a := core.Analysis{T: ex.t, Params: ex.params}
		start := time.Now()
		res, err := prog.Check(ctx, a, ex.mode)
		if err != nil {
			return err
		}
		single := time.Since(start)

		for _, size := range portfolioSizes {
			pa := a
			pa.Portfolio = size
			pr, err := prog.Check(ctx, pa, ex.mode)
			if err != nil {
				return err
			}
			if pr.Status != res.Status {
				return fmt.Errorf("%s (width %d): portfolio answered %v but single config answered %v",
					ex.name, size, pr.Status, res.Status)
			}
			speedup := float64(single) / float64(pr.WallClock)
			if speedup > 1 {
				wins++
			}
			fmt.Printf("%-20s  %-8s  %5d  %9.3fs  %9.3fs  %7.2fx  %-14s\n",
				ex.name, ex.mode, size, single.Seconds(), pr.WallClock.Seconds(), speedup, pr.Winner)
		}
	}

	fmt.Printf("portfolio beat the single config on %d/%d rows (%d CPUs)\n", wins, len(examples)*len(portfolioSizes), runtime.NumCPU())
	fmt.Println("(every answer agreed across modes — diversification changes speed, never the verdict)")
	return nil
}
