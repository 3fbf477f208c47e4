package portfolio

import (
	"sync"
	"testing"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
)

// TestSearchReportConcurrentWithRace samples a live portfolio race from
// the outside — the pattern behind GET /v1/jobs/{id}/explain on a
// running job: N diversified solvers publish into one shared Progress
// (which keeps the search report), while a poller goroutine repeatedly
// snapshots Report() mid-solve. Run under -race in CI; the assertions
// pin internal consistency of every mid-flight snapshot, and that the
// final report attributes effort to each racing config by name.
func TestSearchReportConcurrentWithRace(t *testing.T) {
	info := qm.MustLoad(qm.FQBuggyQuerySrc)
	p := &sat.Progress{}
	rec := p

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reports []*sat.SearchReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if rep := rec.Report(); rep != nil {
					reports = append(reports, rep)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	res, err := Check(info, Options{
		N: 4,
		Base: smtbe.Options{
			IR:     ir.Options{T: 8, Params: map[string]int64{"N": 3}},
			Solver: solver.Options{Progress: p},
			Mode:   smtbe.Witness,
		},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smtbe.WitnessFound {
		t.Fatalf("status = %v, want WitnessFound", res.Status)
	}

	// Every mid-flight snapshot is internally consistent: monotone
	// sample timelines, totals never shrinking between snapshots.
	var lastConflicts int64
	for i, rep := range reports {
		if rep.Totals.Conflicts < lastConflicts {
			t.Fatalf("snapshot %d: job conflicts went backwards (%d -> %d)",
				i, lastConflicts, rep.Totals.Conflicts)
		}
		lastConflicts = rep.Totals.Conflicts
		for j := 1; j < len(rep.Samples); j++ {
			if rep.Samples[j].Conflicts < rep.Samples[j-1].Conflicts {
				t.Fatalf("snapshot %d sample %d: cumulative conflicts decreased", i, j)
			}
		}
	}

	final := rec.Report()
	if final.Totals.Solves != 4 {
		t.Errorf("solves = %d, want 4 (one per racing config)", final.Totals.Solves)
	}
	// Each config's effort is attributed under its portfolio name.
	names := map[string]bool{}
	for _, c := range final.Configs {
		names[c.Name] = true
		if c.Name == "" {
			t.Errorf("config effort recorded without a name: %+v", c)
		}
	}
	for _, run := range res.Runs {
		if !names[run.Name] {
			t.Errorf("racing config %q missing from the report's breakdown %v", run.Name, names)
		}
	}
	// The report's job-wide totals agree with what Progress accumulated.
	if snap := p.Snapshot(); final.Totals.Conflicts != snap.Conflicts {
		t.Errorf("report conflicts %d != progress %d", final.Totals.Conflicts, snap.Conflicts)
	}
}
