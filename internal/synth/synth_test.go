package synth

import (
	"strings"
	"testing"

	"buffy/internal/backend/ts"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
)

func TestGrammarShape(t *testing.T) {
	info, err := qm.Load(qm.PathServerSrc)
	if err != nil {
		t.Fatal(err)
	}
	sv := solver.New(solver.Options{})
	probe, err := ir.NewMachine(info, sv.Builder(), ir.Options{Params: map[string]int64{"C": 2, "B": 2}})
	if err != nil {
		t.Fatal(err)
	}
	cands := Grammar(info, probe, GrammarOptions{Consts: []int64{0, 4, 8}})
	if len(cands) < 6 {
		t.Fatalf("grammar produced only %d candidates", len(cands))
	}
	names := strings.Join(Names(cands), "\n")
	for _, want := range []string{
		"tokens >= 0", "tokens <= 4", "dropped(pin) == 0", "backlog(pin) <= 8",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("grammar missing candidate %q\n%s", want, names)
		}
	}
}

// The Houdini run on the path server must keep the true token-bucket
// invariants and drop the false ones — the A3 experiment.
func TestHoudiniPathServer(t *testing.T) {
	info, err := qm.Load(qm.PathServerSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := ts.Options{IR: ir.Options{Params: map[string]int64{"C": 2, "B": 2}, Bounds: typecheck.Bounds{BufferCap: 8}}}
	sv := solver.New(solver.Options{})
	probe, err := ir.NewMachine(info, sv.Builder(), opts.IR)
	if err != nil {
		t.Fatal(err)
	}
	cands := Grammar(info, probe, GrammarOptions{Consts: []int64{0, 1, 4, 8}, BufferCap: 8})
	res, err := Houdini(info, opts, cands)
	if err != nil {
		t.Fatal(err)
	}
	surv := strings.Join(Names(res.Survivors), "\n")
	drop := strings.Join(Names(res.Dropped), "\n")
	for _, want := range []string{"tokens >= 0", "tokens <= 4", "backlog(pin) <= 8"} {
		if !strings.Contains(surv, want) {
			t.Errorf("survivor missing: %q\nsurvivors:\n%s", want, surv)
		}
	}
	for _, gone := range []string{"tokens <= 1", "dropped(pin) == 0", "backlog(pin) <= 1"} {
		if !strings.Contains(drop, gone) {
			t.Errorf("should have been dropped: %q\ndropped:\n%s", gone, drop)
		}
	}
	if res.Rounds < 1 || res.Checks == 0 {
		t.Error("expected at least one round and some checks")
	}

	// The survivors must actually be a mutually inductive set: feeding
	// them back into a k-induction proof of each one succeeds.
	for _, c := range res.Survivors {
		var aux []ts.Prop
		for _, o := range res.Survivors {
			if o.Name != c.Name {
				aux = append(aux, o.Prop)
			}
		}
		pres, err := ts.ProveInvariant(info, ts.Options{IR: opts.IR, Aux: aux}, c.Prop)
		if err != nil {
			t.Fatal(err)
		}
		if !pres.Proved {
			t.Errorf("survivor %q is not inductive with the others as lemmas", c.Name)
		}
	}
}

// Houdini drops mutually-dependent false candidates transitively.
func TestHoudiniTransitiveDrop(t *testing.T) {
	info, err := qm.Load(`p(buffer a, buffer b) {
		global int x; global int y;
		x = x + 1;
		if (x > 3) { x = 0; }
		y = x;
		move-p(a, b, 1);
	}`)
	if err != nil {
		t.Fatal(err)
	}
	opts := ts.Options{IR: ir.Options{}}
	sv := solver.New(solver.Options{})
	probe, err := ir.NewMachine(info, sv.Builder(), opts.IR)
	if err != nil {
		t.Fatal(err)
	}
	cands := Grammar(info, probe, GrammarOptions{Consts: []int64{0, 3, 8}})
	res, err := Houdini(info, opts, cands)
	if err != nil {
		t.Fatal(err)
	}
	surv := strings.Join(Names(res.Survivors), "\n")
	// x cycles 1,2,3,0: x <= 3 and x >= 0 must survive; x <= 0 must not.
	for _, want := range []string{"x <= 3", "x >= 0", "y <= 3", "y >= 0"} {
		if !strings.Contains(surv, want) {
			t.Errorf("missing survivor %q\n%s", want, surv)
		}
	}
	if strings.Contains(surv, "x <= 0") {
		t.Errorf("x <= 0 should be dropped\n%s", surv)
	}
}
