package qm_test

import (
	"testing"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
)

// Every embedded model must parse and check.
func TestAllModelsLoad(t *testing.T) {
	srcs := map[string]string{
		"fq-buggy": qm.FQBuggySrc, "fq-buggy-query": qm.FQBuggyQuerySrc,
		"fq-fixed-query": qm.FQFixedQuerySrc,
		"rr":             qm.RRSrc, "rr-query": qm.RRQuerySrc,
		"sp": qm.SPSrc, "sp-query": qm.SPQuerySrc,
		"path": qm.PathServerSrc, "delay": qm.DelaySrc,
		"aimd": qm.AIMDSrc, "shaper": qm.ShaperSrc,
		"tbrl": qm.TBRLSrc, "sptandem": qm.SPTandemSrc,
	}
	for name, src := range srcs {
		if _, err := qm.Load(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCountLoC(t *testing.T) {
	if got := qm.CountLoC("a\n// comment\n\n  b\n"); got != 2 {
		t.Errorf("CountLoC = %d, want 2", got)
	}
	// Figure 4 has 18 non-comment lines in the paper; ours matches ±1
	// (source formatting).
	if got := qm.CountLoC(qm.FQBuggySrc); got < 17 || got > 20 {
		t.Errorf("FQ LoC = %d, expected ~18 (Figure 4)", got)
	}
	if got := qm.CountLoC(qm.SPSrc); got != 7 {
		t.Errorf("SP LoC = %d, want 7 (Table 1)", got)
	}
}

func TestMustLoadPanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	qm.MustLoad("not buffy")
}

// The shaper's token-bucket envelope holds on all executions, including
// multi-byte packets.
func TestShaperEnvelopeHolds(t *testing.T) {
	info, err := qm.Load(qm.ShaperSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtbe.Check(info, smtbe.Options{
		IR: ir.Options{
			T: 4, Params: map[string]int64{"RATE": 2, "BURST": 3},
			Bounds: typecheck.Bounds{MaxBytes: 3, ArrivalsPerStep: 2},
		},
		Mode: smtbe.Verify,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.Holds {
		t.Fatalf("shaper envelope: %v\n%v", res.Status, res.Trace)
	}
}

// The regulator invariants of the two netcalc corpus models hold on all
// executions: shaped queues stay within their configured bursts.
func TestNetcalcModelsInvariantsHold(t *testing.T) {
	cases := []struct {
		name, src string
		params    map[string]int64
	}{
		{"tbrl", qm.TBRLSrc, map[string]int64{"RATE": 1, "BURST": 3, "C": 2}},
		{"sptandem", qm.SPTandemSrc, map[string]int64{"RH": 1, "BH": 2, "RV": 1, "BV": 2, "C": 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info, err := qm.Load(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := smtbe.Check(info, smtbe.Options{
				IR:   ir.Options{T: 4, Params: tc.params, Bounds: typecheck.Bounds{ArrivalsPerStep: 2, BufferCap: 16}},
				Mode: smtbe.Verify,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != smtbe.Holds {
				t.Fatalf("%s invariants: %v\n%v", tc.name, res.Status, res.Trace)
			}
		})
	}
}

// A witness exists where the shaper emits a full BURST of bytes in a
// single step — credit accumulates while the input idles, then a burst of
// arrivals drains it at once.
func TestShaperBurstWitness(t *testing.T) {
	const burstSrc = `
shaperw(buffer sin, buffer sout){
  global int credit;
  monitor int delta;
  local int before; local int moved;
  credit = credit + RATE;
  if (credit > BURST) { credit = BURST; }
  before = backlog-b(sin);
  move-b(sin, sout, credit);
  moved = before - backlog-b(sin);
  credit = credit - moved;
  delta = moved;
  if (t == T - 1) { assert(delta == BURST); }}
`
	info, err := qm.Load(burstSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtbe.Check(info, smtbe.Options{
		IR: ir.Options{
			T: 3, Params: map[string]int64{"RATE": 2, "BURST": 4},
			Bounds: typecheck.Bounds{MaxBytes: 2, ArrivalsPerStep: 2},
		},
		Mode: smtbe.Witness,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.WitnessFound {
		t.Fatalf("burst witness: %v", res.Status)
	}
	// The witness must include a quiet early step (credit accumulation).
	perStepBytes := map[int]int64{}
	for _, p := range res.Trace.Packets {
		perStepBytes[p.Step] += p.Bytes
	}
	if perStepBytes[0] > 2 && perStepBytes[1] > 2 {
		t.Errorf("expected an idle-ish early step to accumulate credit; arrivals: %v", perStepBytes)
	}
}

// DRR is work conserving on every execution.
func TestDRRWorkConservation(t *testing.T) {
	info, err := qm.Load(qm.DRRSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtbe.Check(info, smtbe.Options{
		IR:   ir.Options{T: 4, Params: map[string]int64{"N": 2, "Q": 2}},
		Mode: smtbe.Verify,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.Holds {
		t.Fatalf("DRR work conservation: %v\n%v", res.Status, res.Trace)
	}
}

// With quantum 1, DRR under saturating demand alternates queues like
// round-robin: neither queue can take 5 of 6 services.
func TestDRRQuantumFairness(t *testing.T) {
	src := `
drrq(buffer[N] ibs, buffer ob){
  global int cur; global int[N] deficit;
  monitor int cdeq0;
  assume(backlog-p(ibs[0]) > 0);
  assume(backlog-p(ibs[1]) > 0);
  local bool dequeued;
  local dequeued = false;
  for (i in 0..N + 1) do {
    if (!dequeued) {
      if (backlog-p(ibs[cur]) == 0) {
        deficit[cur] = 0;
        cur = cur + 1;
        if (cur >= N) { cur = 0; }
        deficit[cur] = deficit[cur] + Q;
      } else {
        if (deficit[cur] > 0) {
          move-p(ibs[cur], ob, 1);
          deficit[cur] = deficit[cur] - 1;
          if (cur == 0) { cdeq0 = cdeq0 + 1; }
          dequeued = true;
        } else {
          cur = cur + 1;
          if (cur >= N) { cur = 0; }
          deficit[cur] = deficit[cur] + Q;
        }
      }
    }
  }
  if (t == T - 1) { assert(cdeq0 >= T - 1); }}
`
	info, err := qm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smtbe.Check(info, smtbe.Options{
		IR:   ir.Options{T: 6, Params: map[string]int64{"N": 2, "Q": 1}, Bounds: typecheck.Bounds{ArrivalsPerStep: 2}},
		Mode: smtbe.Witness,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.NoWitness {
		t.Fatalf("Q=1 DRR should be fair under saturation: %v\n%v", res.Status, res.Trace)
	}
}
