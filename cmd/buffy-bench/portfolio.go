package main

import (
	"fmt"
	"runtime"
	"time"

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
		mode   string // "verify" | "witness"
		t      int
		params map[string]int64
	}{
		{"cs1-fq-starvation", qm.FQBuggyQuerySrc, "witness", 8, map[string]int64{"N": 3}},
		{"sp-starvation", qm.SPQuerySrc, "witness", 6, map[string]int64{"N": 3}},
		{"rr-no-starvation", qm.RRQuerySrc, "witness", 6, map[string]int64{"N": 2}},
		{"shaper-envelope", qm.ShaperSrc, "verify", 5, map[string]int64{"RATE": 2, "BURST": 3}},
	}

	wins := 0
	fmt.Printf("%-20s  %-8s  %5s  %10s  %10s  %8s  %-14s\n",
		"example", "mode", "width", "single", "portfolio", "speedup", "winner")
	for _, ex := range examples {
		prog, err := core.Parse(ex.src)
		if err != nil {
			return err
		}
		a := core.Analysis{T: ex.t, Params: ex.params}

		var singleStatus string
		start := time.Now()
		if ex.mode == "verify" {
			res, err := prog.Verify(a)
			if err != nil {
				return err
			}
			singleStatus = res.Status.String()
		} else {
			res, err := prog.FindWitness(a)
			if err != nil {
				return err
			}
			singleStatus = res.Status.String()
		}
		single := time.Since(start)

		for _, size := range portfolioSizes {
			pa := a
			pa.Portfolio = size
			var portStatus, winner string
			var portWall time.Duration
			if ex.mode == "verify" {
				pr, err := prog.VerifyPortfolio(pa)
				if err != nil {
					return err
				}
				portStatus, winner, portWall = pr.Status.String(), pr.Winner, pr.WallClock
			} else {
				pr, err := prog.FindWitnessPortfolio(pa)
				if err != nil {
					return err
				}
				portStatus, winner, portWall = pr.Status.String(), pr.Winner, pr.WallClock
			}

			if portStatus != singleStatus {
				return fmt.Errorf("%s (width %d): portfolio answered %s but single config answered %s",
					ex.name, size, portStatus, singleStatus)
			}
			speedup := float64(single) / float64(portWall)
			if speedup > 1 {
				wins++
			}
			fmt.Printf("%-20s  %-8s  %5d  %9.3fs  %9.3fs  %7.2fx  %-14s\n",
				ex.name, ex.mode, size, single.Seconds(), portWall.Seconds(), speedup, winner)
		}
	}

	fmt.Printf("portfolio beat the single config on %d/%d rows (%d CPUs)\n", wins, len(examples)*len(portfolioSizes), runtime.NumCPU())
	fmt.Println("(every answer agreed across modes — diversification changes speed, never the verdict)")
	return nil
}
