package main

import (
	"context"
	"fmt"

	"buffy/internal/backend/netcalc"
	"buffy/internal/qm"
)

// runNetcalc sweeps the netcalc corpus: every model answers its bound
// query analytically in microseconds, then the SMT backend spends
// milliseconds-to-seconds certifying at horizon T that no execution beats
// the bound (domination). The experiment fails unless every bounded
// model is dominated — the same invariant the CI differential step
// enforces.
func runNetcalc() error {
	dominated := 0
	fmt.Printf("%-10s  %-9s  %8s  %8s  %12s  %10s  %-17s\n",
		"model", "bounded", "delay", "backlog", "netcalc", "smt", "status")
	for _, e := range netcalc.Corpus() {
		info, err := qm.Load(e.Src)
		if err != nil {
			return err
		}
		// Warm once so the timed run measures the algebra, not first-call
		// allocator effects, then re-run for the reported latency.
		if _, err := netcalc.Analyze(context.Background(), info, e.NetOptions()); err != nil {
			return err
		}
		r, err := netcalc.Analyze(context.Background(), info, e.NetOptions())
		if err != nil {
			return err
		}
		report, err := netcalc.CrossCheck(context.Background(), info, r,
			netcalc.CrossCheckOptions{IR: e.IROptions()})
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		delay, backlog := "-", "-"
		if r.Bounded {
			delay, backlog = r.Delay.RatString(), r.Backlog.RatString()
			if report.Status != "dominated" {
				return fmt.Errorf("%s: bound not certified at T=%d: %s", e.Name, e.T, report.Status)
			}
			dominated++
		}
		fmt.Printf("%-10s  %-9v  %8s  %8s  %10.1fµs  %8.1fms  %-17s\n",
			e.Name, r.Bounded, delay, backlog, float64(r.Duration.Nanoseconds())/1e3,
			float64(report.Duration.Microseconds())/1e3, report.Status)
	}
	fmt.Printf("every bounded model dominated its SMT sweep (%d models)\n", dominated)
	fmt.Println("(analytical bounds in microseconds; the solver pays milliseconds to certify them)")
	return nil
}
