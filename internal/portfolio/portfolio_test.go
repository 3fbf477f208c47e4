package portfolio

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/sat"
	"buffy/internal/smt/solver"
)

// stubCheck installs a scripted per-config solve keyed by the config's
// RestartBase (a convenient identifier the stub can read back out of the
// search options), restoring the real encode/solve phases on cleanup.
func stubCheck(t *testing.T, script map[int64]func(ctx context.Context) (*smtbe.Result, error)) {
	t.Helper()
	origEnc, origSolve := encodeFn, solveFn
	encodeFn = func(ctx context.Context, info *typecheck.Info, o smtbe.Options) (*smtbe.Encoded, error) {
		return &smtbe.Encoded{Mode: o.Mode}, nil
	}
	solveFn = func(ctx context.Context, enc *smtbe.Encoded, search sat.Options) (*smtbe.Result, error) {
		fn, ok := script[search.RestartBase]
		if !ok {
			return nil, fmt.Errorf("stub: no script for RestartBase=%d", search.RestartBase)
		}
		return fn(ctx)
	}
	t.Cleanup(func() { encodeFn, solveFn = origEnc, origSolve })
}

// TestFirstWinsCancelsLosers scripts the race: a fast conclusive config
// and a slow one that only returns once it observes cancellation. The
// portfolio must return the fast answer, cancel the loser, and still
// account the loser's effort.
func TestFirstWinsCancelsLosers(t *testing.T) {
	slowSawCancel := make(chan struct{}, 1)
	stubCheck(t, map[int64]func(ctx context.Context) (*smtbe.Result, error){
		1: func(ctx context.Context) (*smtbe.Result, error) {
			return &smtbe.Result{Status: smtbe.Holds, SatStats: sat.Stats{Conflicts: 7}}, nil
		},
		2: func(ctx context.Context) (*smtbe.Result, error) {
			select {
			case <-ctx.Done():
				slowSawCancel <- struct{}{}
				return &smtbe.Result{Status: smtbe.Unknown, SatStats: sat.Stats{Conflicts: 3}}, ctx.Err()
			case <-time.After(30 * time.Second):
				return nil, errors.New("stub: loser was never cancelled")
			}
		},
	})

	res, err := CheckContext(context.Background(), nil, Options{Configs: []Config{
		{Name: "fast", Search: sat.Options{RestartBase: 1}},
		{Name: "slow", Search: sat.Options{RestartBase: 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "fast" || res.Status != smtbe.Holds {
		t.Fatalf("winner=%q status=%v, want fast/holds", res.Winner, res.Status)
	}
	select {
	case <-slowSawCancel:
	default:
		t.Fatal("losing config did not observe cancellation")
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(res.Runs))
	}
	if res.Runs[1].Status != smtbe.Unknown || res.Runs[1].Stats.Conflicts != 3 {
		t.Errorf("loser run = %+v, want Unknown with its partial stats", res.Runs[1])
	}
	if res.Runs[1].Err != "" {
		t.Errorf("loser's cancellation recorded as failure: %q", res.Runs[1].Err)
	}
	if res.Runs[0].Status != smtbe.Holds || res.Runs[0].Stats.Conflicts != 7 {
		t.Errorf("winner run = %+v", res.Runs[0])
	}
}

// TestDisagreementFlagged pins the differential safety net: two
// conclusive configs with different answers must fail the whole analysis.
func TestDisagreementFlagged(t *testing.T) {
	second := make(chan struct{})
	stubCheck(t, map[int64]func(ctx context.Context) (*smtbe.Result, error){
		1: func(ctx context.Context) (*smtbe.Result, error) {
			return &smtbe.Result{Status: smtbe.Holds}, nil
		},
		2: func(ctx context.Context) (*smtbe.Result, error) {
			<-second // lose the race, then answer conclusively anyway
			return &smtbe.Result{Status: smtbe.CounterexampleFound}, nil
		},
	})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(second)
	}()

	res, err := CheckContext(context.Background(), nil, Options{Configs: []Config{
		{Name: "a", Search: sat.Options{RestartBase: 1}},
		{Name: "b", Search: sat.Options{RestartBase: 2}},
	}})
	if !errors.Is(err, ErrDisagreement) {
		t.Fatalf("err = %v, want ErrDisagreement", err)
	}
	if res == nil || !res.Disagreement {
		t.Fatalf("result must flag the disagreement: %+v", res)
	}
}

// TestPanickingConfigFailsGracefully: a panic inside one config must
// neither crash the process nor poison the race.
func TestPanickingConfigFailsGracefully(t *testing.T) {
	stubCheck(t, map[int64]func(ctx context.Context) (*smtbe.Result, error){
		1: func(ctx context.Context) (*smtbe.Result, error) { panic("boom") },
		2: func(ctx context.Context) (*smtbe.Result, error) {
			return &smtbe.Result{Status: smtbe.NoWitness}, nil
		},
	})
	res, err := CheckContext(context.Background(), nil, Options{Configs: []Config{
		{Name: "bad", Search: sat.Options{RestartBase: 1}},
		{Name: "good", Search: sat.Options{RestartBase: 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "good" || res.Status != smtbe.NoWitness {
		t.Fatalf("winner=%q status=%v", res.Winner, res.Status)
	}
	if res.Runs[0].Err == "" {
		t.Error("panicking config's run must carry its error")
	}
}

// TestAllUnknownReturnsUnknown: when every config exhausts its budget the
// portfolio reports Unknown without error, like a single solver would.
func TestAllUnknownReturnsUnknown(t *testing.T) {
	info := qm.MustLoad(qm.FQBuggyQuerySrc)
	res, err := CheckContext(context.Background(), info, Options{
		Configs: DefaultConfigs(2),
		Base: smtbe.Options{
			IR:     ir.Options{T: 8, Params: map[string]int64{"N": 3}},
			Solver: solver.Options{MaxConflicts: 1},
			Mode:   smtbe.Witness,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "" || res.Status != smtbe.Unknown {
		t.Fatalf("winner=%q status=%v, want no winner / unknown", res.Winner, res.Status)
	}
}

// TestCallerCancellationPropagates: cancelling the caller's context
// aborts every configuration and surfaces ctx.Err().
func TestCallerCancellationPropagates(t *testing.T) {
	info := qm.MustLoad(qm.FQBuggyQuerySrc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := CheckContext(ctx, info, Options{
		N: 2,
		Base: smtbe.Options{
			IR:   ir.Options{T: 12, Params: map[string]int64{"N": 3}},
			Mode: smtbe.Witness,
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPortfolioRealRaceLosersStopEarly is the acceptance scenario on the
// real solver stack: a 4-wide portfolio where three configs branch purely
// at random (hopeless on a structured BMC instance) races one classic
// config. The classic config wins with a conclusive answer and every
// crippled loser observes cancellation mid-search — visible as Status
// Unknown with partial sat.Stats.
//
// Neither outcome is left to the goroutine scheduler. The classic config
// starts searching only once every crippled config has published search
// effort, so none can be cancelled before its first decision. And at T=8
// the crippled configs cannot catch up: searching alone, the classic
// config finds the witness in 2,289 conflicts (~0.1 s on a 2-vCPU VM),
// while seeds 101, 202 and 303 need 8,072, 8,272 and 10,811 (1.2–1.9 s).
func TestPortfolioRealRaceLosersStopEarly(t *testing.T) {
	info := qm.MustLoad(qm.FQBuggyQuerySrc)
	crippled := func(name string, seed uint64) Config {
		return Config{Name: name, Search: sat.Options{
			RandSeed: seed, RandFreq: 1.0, VarDecay: 0.999, RestartBase: 2_000_000,
		}}
	}
	progress := &sat.Progress{}
	realSolve := solveFn
	solveFn = func(ctx context.Context, enc *smtbe.Encoded, search sat.Options) (*smtbe.Result, error) {
		for search.Name == "classic" && !losersSearching(progress, 3) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
		return realSolve(ctx, enc, search)
	}
	t.Cleanup(func() { solveFn = realSolve })
	res, err := CheckContext(context.Background(), info, Options{
		Configs: []Config{
			{Name: "classic"},
			crippled("rand-a", 101),
			crippled("rand-b", 202),
			crippled("rand-c", 303),
		},
		Base: smtbe.Options{
			IR:     ir.Options{T: 8, Params: map[string]int64{"N": 3}},
			Solver: solver.Options{Progress: progress},
			Mode:   smtbe.Witness,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "classic" || res.Status != smtbe.WitnessFound {
		t.Fatalf("winner=%q status=%v, want classic/witness", res.Winner, res.Status)
	}
	if res.Trace == nil {
		t.Fatal("winner's result must carry the witness trace")
	}
	stopped := 0
	for _, run := range res.Runs[1:] {
		if run.Status == smtbe.Unknown {
			stopped++
			if run.Stats.Decisions == 0 {
				t.Errorf("loser %s reported no search effort before stopping", run.Name)
			}
		}
	}
	if stopped == 0 {
		t.Error("no loser observed cancellation — first-wins cancel is not working")
	}
}

// losersSearching reports whether n configs other than "classic" have
// published search decisions into p.
func losersSearching(p *sat.Progress, n int) bool {
	searching := 0
	for _, ce := range p.Report().Configs {
		if ce.Name != "classic" && ce.Decisions > 0 {
			searching++
		}
	}
	return searching == n
}

func TestDefaultConfigsShape(t *testing.T) {
	if got := len(DefaultConfigs(0)); got != DefaultSize {
		t.Errorf("DefaultConfigs(0) len = %d, want %d", got, DefaultSize)
	}
	cfgs := DefaultConfigs(12)
	if len(cfgs) != 12 {
		t.Fatalf("len = %d, want 12", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if seen[c.Name] {
			t.Errorf("duplicate config name %q", c.Name)
		}
		seen[c.Name] = true
	}
	// Extended configs must have live random branching.
	for _, c := range cfgs[len(builtinConfigs()):] {
		if c.Search.RandSeed == 0 || c.Search.RandFreq == 0 {
			t.Errorf("extended config %q lacks a branching seed", c.Name)
		}
	}
}
