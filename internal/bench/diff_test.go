package bench

import (
	"math"
	"strings"
	"testing"
)

func baseTrajectory() *Trajectory {
	return &Trajectory{
		Schema: TrajectorySchema, GoVersion: "go1.22", GOMAXPROCS: 8,
		NumCPU: 8, OS: "linux", Arch: "amd64", Repeats: 3,
		Experiments: []Experiment{
			{
				Name: "cs1-fq-witness", RunsMS: []float64{400, 410, 420},
				MedianMS: 410, IQRMS: 10, Deterministic: true,
				Work: map[string]int64{"conflicts": 4000, "propagations": 3_000_000, "restarts": 20},
			},
			{
				Name: "portfolio-wall", RunsMS: []float64{300, 350, 400},
				MedianMS: 350, IQRMS: 50, TimeOnly: true,
			},
		},
	}
}

// clone deep-copies a trajectory so tests can perturb one side.
func clone(t *Trajectory) *Trajectory {
	c := *t
	c.Experiments = append([]Experiment(nil), t.Experiments...)
	for i := range c.Experiments {
		w := make(map[string]int64, len(t.Experiments[i].Work))
		for k, v := range t.Experiments[i].Work {
			w[k] = v
		}
		if len(w) == 0 {
			w = nil
		}
		c.Experiments[i].Work = w
		c.Experiments[i].RunsMS = append([]float64(nil), t.Experiments[i].RunsMS...)
	}
	return &c
}

func TestDiffIdenticalPasses(t *testing.T) {
	base := baseTrajectory()
	reg, _ := Diff(base, clone(base))
	if len(reg) != 0 {
		t.Fatalf("identical trajectories regressed: %v", reg)
	}
}

func TestDiffWorkRegressionFails(t *testing.T) {
	base := baseTrajectory()
	cand := clone(base)
	// +40% conflicts on a deterministic probe: past the 30% gate.
	cand.Experiments[0].Work["conflicts"] = 5600
	reg, _ := Diff(base, cand)
	if len(reg) != 1 || reg[0].Metric != "conflicts" || reg[0].Exp != "cs1-fq-witness" {
		t.Fatalf("want one conflicts regression, got %v", reg)
	}
	if got := reg[0].String(); !strings.Contains(got, "conflicts") {
		t.Fatalf("finding renders without the metric: %q", got)
	}
}

func TestDiffWorkWithinThresholdPasses(t *testing.T) {
	base := baseTrajectory()
	cand := clone(base)
	cand.Experiments[0].Work["conflicts"] = 5000 // +25% < 30%
	if reg, _ := Diff(base, cand); len(reg) != 0 {
		t.Fatalf("+25%% work should pass, got %v", reg)
	}
}

func TestDiffSmallCounterNotGated(t *testing.T) {
	base := baseTrajectory()
	cand := clone(base)
	// restarts 20 -> 40 is +100% but below the MinWork floor: a note,
	// not a regression.
	cand.Experiments[0].Work["restarts"] = 40
	reg, notes := Diff(base, cand)
	if len(reg) != 0 {
		t.Fatalf("sub-floor counter gated: %v", reg)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "restarts") && strings.Contains(n, "floor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sub-floor drift not noted: %v", notes)
	}
}

func TestDiffMissingExperimentIsRegression(t *testing.T) {
	base := baseTrajectory()
	cand := clone(base)
	cand.Experiments = cand.Experiments[:1] // drop portfolio-wall
	reg, _ := Diff(base, cand)
	if len(reg) != 1 || reg[0].Metric != "presence" || reg[0].Exp != "portfolio-wall" {
		t.Fatalf("want presence regression for portfolio-wall, got %v", reg)
	}
}

func TestDiffMissingCounterIsRegression(t *testing.T) {
	base := baseTrajectory()
	cand := clone(base)
	delete(cand.Experiments[0].Work, "propagations")
	reg, _ := Diff(base, cand)
	if len(reg) != 1 || reg[0].Metric != "propagations" {
		t.Fatalf("want propagations-missing regression, got %v", reg)
	}
}

func TestDiffTimeGate(t *testing.T) {
	base := baseTrajectory()

	// Past the relative threshold and the noise bar: regression.
	cand := clone(base)
	cand.Experiments[1].MedianMS = 900 // +157%, delta 550 > 3*50
	reg, _ := Diff(base, cand)
	if len(reg) != 1 || reg[0].Metric != "median_ms" {
		t.Fatalf("want median_ms regression, got %v", reg)
	}

	// Same ratio but inside the IQR noise bar: not gated.
	cand = clone(base)
	cand.Experiments[1].MedianMS = 900
	cand.Experiments[1].IQRMS = 400 // noise bar 3*400 swallows the delta
	if reg, _ := Diff(base, cand); len(reg) != 0 {
		t.Fatalf("delta inside noise bar gated: %v", reg)
	}
}

func TestDiffFingerprintMismatchMakesTimeAdvisory(t *testing.T) {
	base := baseTrajectory()
	cand := clone(base)
	cand.GoVersion = "go1.23"
	cand.Experiments[1].MedianMS = 2000
	// Work regression must still gate cross-machine.
	cand.Experiments[0].Work["conflicts"] = 9000
	reg, notes := Diff(base, cand)
	if len(reg) != 1 || reg[0].Metric != "conflicts" {
		t.Fatalf("want only the work regression cross-machine, got %v", reg)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "fingerprints differ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fingerprint mismatch not noted: %v", notes)
	}
}

func TestDiffNondeterministicWorkNotGated(t *testing.T) {
	base := baseTrajectory()
	base.Experiments[0].Deterministic = false
	cand := clone(base)
	cand.Experiments[0].Work["conflicts"] = 9000
	reg, notes := Diff(base, cand)
	if len(reg) != 0 {
		t.Fatalf("non-deterministic work gated: %v", reg)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "not deterministic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing non-determinism note: %v", notes)
	}
}

func TestDiffAdvisoryNeverGates(t *testing.T) {
	base := baseTrajectory()
	base.Experiments[1].Advisory = true
	cand := clone(base)
	cand.Experiments[1].MedianMS = 5000 // wildly slower, still only a note
	reg, notes := Diff(base, cand)
	if len(reg) != 0 {
		t.Fatalf("advisory probe gated: %v", reg)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "advisory probe") {
			found = true
		}
	}
	if !found {
		t.Fatalf("advisory drift not noted: %v", notes)
	}

	// Dropping an advisory probe is still a coverage regression.
	cand = clone(base)
	cand.Experiments = cand.Experiments[:1]
	if reg, _ := Diff(base, cand); len(reg) != 1 || reg[0].Metric != "presence" {
		t.Fatalf("dropped advisory probe not flagged: %v", reg)
	}
}

func TestMedianIQR(t *testing.T) {
	med, iqr := MedianIQR([]float64{400, 410, 420})
	if med != 410 || iqr != 10 {
		t.Fatalf("median/iqr of {400,410,420} = %v/%v, want 410/10", med, iqr)
	}
	med, iqr = MedianIQR([]float64{7})
	if med != 7 || iqr != 0 {
		t.Fatalf("single sample: %v/%v, want 7/0", med, iqr)
	}
	med, _ = MedianIQR([]float64{1, 2, 3, 4})
	if math.Abs(med-2.5) > 1e-9 {
		t.Fatalf("even-length median %v, want 2.5", med)
	}
	if med, _ := MedianIQR(nil); med != 0 {
		t.Fatalf("empty median %v, want 0", med)
	}
}
