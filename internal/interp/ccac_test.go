package interp

import (
	"context"
	"testing"

	"buffy/internal/compose"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
)

// TestCCACWitnessReplaysConcretely is the composed-system differential
// test: the solver's ack-burst loss witness (three programs connected by
// buffers) is replayed through the concrete composition runtime and must
// reproduce every final backlog, drop count and variable.
func TestCCACWitnessReplaysConcretely(t *testing.T) {
	const (
		C, B, IW = 1, 1, 2
		K, T     = 2, 8
	)
	// --- Symbolic run.
	sv := solver.New(solver.Options{})
	sys, err := compose.BuildCCAC(context.Background(), sv.Builder(), compose.CCACParams{C: C, B: B, IW: IW, K: K, T: T})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Sys.CheckQuery(context.Background(), sv, sys.Loss(sv.Builder()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("expected a loss witness")
	}
	tr := sys.Sys.ExtractTrace(sv)

	// --- Concrete replay with identical shapes.
	big := T*4 + 16
	newM := func(src string, params map[string]int64, bufCap int) *Machine {
		info, err := qm.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(info, Options{T: T, Params: params, Bounds: typecheck.Bounds{BufferCap: bufCap, OutBufferCap: big}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	aimd := newM(qm.AIMDSrc, map[string]int64{"IW": IW}, big)
	path := newM(qm.PathServerSrc, map[string]int64{"C": C, "B": B}, K)
	delay := newM(qm.DelaySrc, nil, big)

	cs := NewSystem()
	for _, add := range []struct {
		name string
		m    *Machine
	}{{"aimd", aimd}, {"path", path}, {"delay", delay}} {
		if err := cs.Add(add.name, add.m); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []SystemConn{
		{"aimd", "net", "path", "pin"},
		{"path", "pab", "delay", "din"},
		{"delay", "dout", "aimd", "acks"},
	} {
		if err := cs.Connect(c.FromProg, c.FromBuf, c.ToProg, c.ToBuf); err != nil {
			t.Fatal(err)
		}
	}

	// Havoc sources consume each machine's events in order.
	for name, m := range map[string]*Machine{"aimd": aimd, "path": path, "delay": delay} {
		evs := tr.Havocs[name]
		idx := 0
		m.SetHavocSource(func(step int, hname string) int64 {
			for idx < len(evs) {
				h := evs[idx]
				idx++
				if h.Step == step && h.Name == hname {
					return h.Value
				}
			}
			return 0
		})
	}

	inject := func(step int) {
		for name, m := range map[string]*Machine{"aimd": aimd, "path": path, "delay": delay} {
			for _, ev := range tr.Packets[name] {
				if ev.Step != step {
					continue
				}
				m.Buffer(ev.Buffer).Arrive(Packet{Fields: append([]int64(nil), ev.Fields...), Bytes: ev.Bytes})
			}
		}
	}
	for step := 0; step < T; step++ {
		inject(step)
		if err := cs.Step(step); err != nil {
			t.Fatal(err)
		}
	}

	// --- Compare every observable.
	check := func(prog string, m *Machine) {
		t.Helper()
		for bn, want := range tr.Backlogs[prog] {
			if got := m.Buffer(bn).BacklogP(); got != want {
				t.Errorf("%s.%s backlog: interp=%d solver=%d", prog, bn, got, want)
			}
		}
		for bn, want := range tr.Dropped[prog] {
			if got := m.Buffer(bn).Dropped; got != want {
				t.Errorf("%s.%s dropped: interp=%d solver=%d", prog, bn, got, want)
			}
		}
		for vn, want := range tr.Vars[prog] {
			if got := m.Var(vn); got != want {
				t.Errorf("%s.%s: interp=%d solver=%d", prog, vn, got, want)
			}
		}
	}
	check("aimd", aimd)
	check("path", path)
	check("delay", delay)

	// And the witness property itself: loss occurred at the bottleneck.
	if path.Buffer("pin").Dropped == 0 {
		t.Error("replay lost the loss: pin.dropped == 0")
	}
}
