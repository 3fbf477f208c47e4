package compose

import (
	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// SystemTrace is a concrete execution of a composed system extracted from
// a solver model: per-program external arrivals and havoc values (enough
// to replay the run through interp.System), plus the final observables to
// compare against.
type SystemTrace struct {
	T int
	// Packets and Havocs are keyed by program name.
	Packets map[string][]smtbe.PacketEvent
	Havocs  map[string][]smtbe.HavocEvent
	// Final observables, keyed by program then buffer/variable name.
	Backlogs map[string]map[string]int64
	Dropped  map[string]map[string]int64
	Vars     map[string]map[string]int64
}

// ExtractTrace decodes the solver model of a composed run.
func (s *System) ExtractTrace(sv *solver.Solver) *SystemTrace {
	tr := &SystemTrace{
		T:        s.steps,
		Packets:  make(map[string][]smtbe.PacketEvent),
		Havocs:   make(map[string][]smtbe.HavocEvent),
		Backlogs: make(map[string]map[string]int64),
		Dropped:  make(map[string]map[string]int64),
		Vars:     make(map[string]map[string]int64),
	}
	ctx := &buffer.Ctx{B: s.b, Assume: func(*term.Term) {}, Prefix: "systrace"}
	for _, name := range s.order {
		m := s.machines[name]
		steps := smtbe.ExtractTrace(m.Result(), sv)
		tr.Packets[name] = steps.Packets
		tr.Havocs[name] = steps.Havocs
		// The final observables come after the last step's flush, so they
		// are read from the live machine, not from its last snapshot.
		bl := make(map[string]int64)
		dr := make(map[string]int64)
		for bn, st := range m.Buffers() {
			bl[bn] = sv.IntValue(st.BacklogP(ctx))
			dr[bn] = sv.IntValue(st.Dropped())
		}
		tr.Backlogs[name] = bl
		tr.Dropped[name] = dr
		vars := make(map[string]int64)
		for _, vn := range m.VarNames() {
			v := sv.Value(m.Var(vn))
			if v.Sort == term.Bool {
				if v.Bool {
					vars[vn] = 1
				}
			} else {
				vars[vn] = v.Int
			}
		}
		tr.Vars[name] = vars
	}
	return tr
}
