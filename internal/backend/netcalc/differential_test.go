package netcalc_test

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"buffy/internal/backend/netcalc"
	"buffy/internal/qm"
	"buffy/internal/telemetry"
)

// TestCorpusDomination is the headline differential: on every bounded
// corpus instance the analytical bound must dominate any concrete
// backlog/delay the SMT backend can witness at horizon T (UNSAT on the
// violation query), and every entry's boundedness must match expectation.
func TestCorpusDomination(t *testing.T) {
	for _, e := range netcalc.Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			info, err := qm.Load(e.Src)
			if err != nil {
				t.Fatal(err)
			}
			r, err := netcalc.Analyze(context.Background(), info, e.NetOptions())
			if err != nil {
				t.Fatal(err)
			}
			if r.Bounded != e.Bounded {
				t.Fatalf("bounded = %v, corpus expects %v", r.Bounded, e.Bounded)
			}
			report, err := netcalc.CrossCheck(context.Background(), info, r,
				netcalc.CrossCheckOptions{IR: e.IROptions()})
			if err != nil {
				t.Fatalf("cross-check: %v", err)
			}
			if !e.Bounded {
				if report.Status != "skipped-unbounded" {
					t.Fatalf("unbounded entry status = %q", report.Status)
				}
				return
			}
			if report.Status != "dominated" {
				t.Fatalf("status = %q (stop: %s, witness: %s)", report.Status, report.Stop, report.Witness)
			}
			t.Logf("%s: delay <= %s steps, backlog <= %s pkts, dominated at T=%d in %v",
				e.Name, r.Delay.RatString(), r.Backlog.RatString(), report.T, report.Duration)
		})
	}
}

// TestDisagreementIsHardError plants an artificially tightened bound and
// expects the harness to surface ErrDisagreement: the SMT side can reach a
// victim backlog of 1 in the sptandem queues (burst into vq1 while the
// high-priority flow takes the slot), so a claimed bound of 0 must be
// refuted.
func TestDisagreementIsHardError(t *testing.T) {
	var entry netcalc.CorpusEntry
	for _, e := range netcalc.Corpus() {
		if e.Name == "sptandem" {
			entry = e
		}
	}
	info, err := qm.Load(entry.Src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := netcalc.Analyze(context.Background(), info, entry.NetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Bounded {
		t.Fatal("sptandem should be bounded")
	}
	r.Backlog = new(big.Rat) // claim an impossible backlog bound of 0
	report, err := netcalc.CrossCheck(context.Background(), info, r,
		netcalc.CrossCheckOptions{IR: entry.IROptions()})
	if !errors.Is(err, netcalc.ErrDisagreement) {
		t.Fatalf("want ErrDisagreement, got %v (status %q)", err, report.Status)
	}
	if report.Status != "disagreement" || report.Witness == "" {
		t.Fatalf("report = %+v", report)
	}
}

// TestBoundWork pins the curve operations each corpus model's bound query
// runs, the netcalc span's curve_ops counter: a deterministic stand-in
// for its latency, which is microseconds on any machine.
func TestBoundWork(t *testing.T) {
	want := map[string]int64{"tbrl": 3, "sptandem": 24, "shaper": 3, "delay": 3, "sp": 12, "rr": 8, "drr": 8}
	for _, e := range netcalc.Corpus() {
		info, err := qm.Load(e.Src)
		if err != nil {
			t.Fatal(err)
		}
		tr := telemetry.NewTrace("bound")
		r, err := netcalc.Analyze(telemetry.WithTrace(context.Background(), tr), info, e.NetOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Work()["netcalc.curve_ops"]; got != want[e.Name] {
			t.Errorf("%s: %d curve operations, want %d", e.Name, got, want[e.Name])
		}
		t.Logf("%s: bounded=%v in %v", e.Name, r.Bounded, r.Duration)
	}
}

// TestUnsupportedProgram: programs without a lowering get a clear error.
func TestUnsupportedProgram(t *testing.T) {
	info, err := qm.Load(qm.FQBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netcalc.Analyze(context.Background(), info, netcalc.Options{}); err == nil {
		t.Fatal("fq has no lowering; Analyze should error")
	}
}
