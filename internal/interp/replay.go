package interp

import (
	"fmt"

	"buffy/internal/backend/smtbe"
	"buffy/internal/lang/typecheck"
)

// Replay runs a solver-produced trace through the concrete interpreter.
// The options must carry the T, Params and Bounds of the ir.Options used
// for the check; other values make disagreement expected.
//
// Replay returns an error if an assume() is violated — which would mean
// the solver produced an infeasible trace — and otherwise the machine in
// its final state, with assert failures recorded.
func Replay(info *typecheck.Info, opts Options, tr *smtbe.Trace) (*Machine, error) {
	m, err := New(info, opts)
	if err != nil {
		return nil, err
	}
	// Havoc values are consumed in execution order.
	hIdx := 0
	m.SetHavocSource(func(step int, name string) int64 {
		for hIdx < len(tr.Havocs) {
			h := tr.Havocs[hIdx]
			hIdx++
			if h.Step == step && h.Name == name {
				return h.Value
			}
		}
		return 0
	})
	for t := 0; t < opts.T; t++ {
		for _, p := range tr.Packets {
			if p.Step != t {
				continue
			}
			buf := m.Buffer(p.Buffer)
			if buf == nil {
				return nil, fmt.Errorf("interp: trace references unknown buffer %q", p.Buffer)
			}
			buf.Arrive(Packet{Fields: append([]int64(nil), p.Fields...), Bytes: p.Bytes})
		}
		if err := m.Step(t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Diff compares the interpreter's end state against the solver trace's
// observations; any discrepancy is a soundness bug in one of the two
// semantics. It returns a list of human-readable mismatches.
func Diff(m *Machine, tr *smtbe.Trace) []string {
	var out []string
	last := len(tr.Vars) - 1
	if last < 0 {
		return out
	}
	for name, want := range tr.Vars[last] {
		got, ok := m.vars[name]
		if !ok {
			continue // locals may appear in snapshots; skip unknown names
		}
		if got != want {
			out = append(out, fmt.Sprintf("var %s: interp=%d solver=%d", name, got, want))
		}
	}
	for name, want := range tr.Backlogs[last] {
		buf := m.Buffer(name)
		if buf == nil {
			out = append(out, fmt.Sprintf("buffer %s missing in interpreter", name))
			continue
		}
		if got := buf.BacklogP(); got != want {
			out = append(out, fmt.Sprintf("backlog(%s): interp=%d solver=%d", name, got, want))
		}
	}
	for name, want := range tr.Dropped[last] {
		buf := m.Buffer(name)
		if buf == nil {
			continue
		}
		if got := buf.Dropped; got != want {
			out = append(out, fmt.Sprintf("dropped(%s): interp=%d solver=%d", name, got, want))
		}
	}
	return out
}
