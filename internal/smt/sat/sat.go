// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-watched-literal propagation, first-UIP clause learning with
// recursive minimization, VSIDS branching with phase saving, Luby restarts
// and LBD-based learnt-clause reduction. It is the decision procedure at the
// bottom of Buffy's solver stack; the bit-blasting layer reduces bounded
// integer formulas to the CNF this package solves.
//
// The search heuristics — restart schedule, VSIDS decay, decision
// polarity, randomized branching, learnt-DB limits — are configurable
// through Options (see NewWithOptions); the zero value reproduces the
// classic configuration. Diversifying these knobs is the basis of the
// portfolio layer, which races configurations and takes the first
// conclusive answer.
package sat

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"buffy/internal/smt/cnf"
)

// Fingerprint names the decision procedure's semantics for the durable
// result store's pipeline fingerprint. Heuristic changes (restart
// schedules, branching order) do not require a bump — they cannot change
// a sat/unsat answer — but a change to propagation, learning, or model
// reconstruction that could alter an answer or a model must bump it.
const Fingerprint = "cdcl-v1"

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type lbool uint8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Clauses live in one flat arena, Solver.ca, addressed by a cref: the
// index of the clause's header word. Each clause is clauseHdr words of
// header followed by its literals:
//
//	ca[c]   size<<2 | flags (hdrLocked, hdrDeleted)
//	ca[c+1] LBD
//	ca[c+2] activity, the bits of a float32
//	ca[c+3:c+3+size] literals, the two watched ones first
//
// Neither the arena nor the watch lists hold pointers, so the garbage
// collector never scans the clause database.
type cref uint32

// crefUndef is the cref of no clause: the reason of a decision, an
// assumption, a top-level unit or an unassigned variable.
const crefUndef cref = math.MaxUint32

const (
	clauseHdr = 3 // header words before a clause's literals

	// Header flags, used only inside reduceDB: hdrLocked marks a clause
	// that is the reason of a trail literal, hdrDeleted one being removed.
	hdrLocked  = 1
	hdrDeleted = 2
)

// A watcher is 8 bytes with no pointers: the watched clause and a
// blocker literal from it, whose truth satisfies the clause without a
// look into the arena.
type watcher struct {
	c       cref
	blocker cnf.Lit
}

// Stats records search effort counters. LearntBytes is the estimated
// memory held by the learnt-clause database at the time Stats was read
// (a gauge, unlike the cumulative counters).
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	LearntBytes  int64
}

// Sub returns the effort between an earlier reading o and s: the
// counters are differences, LearntBytes stays s's gauge. A solver that
// is re-solved (a warm session) reports one call's work this way.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Conflicts:    s.Conflicts - o.Conflicts,
		Decisions:    s.Decisions - o.Decisions,
		Propagations: s.Propagations - o.Propagations,
		Restarts:     s.Restarts - o.Restarts,
		Learnt:       s.Learnt - o.Learnt,
		Removed:      s.Removed - o.Removed,
		LearntBytes:  s.LearntBytes,
	}
}

// StopReason explains why a Solve call returned Unknown: which resource
// budget was exhausted, or that the caller cancelled. StopNone means the
// last solve was conclusive (or none has run).
type StopReason int

// Stop reasons, in the order the budget check tests them.
const (
	StopNone StopReason = iota
	// StopConflicts: Limits.MaxConflicts exhausted.
	StopConflicts
	// StopPropagations: Limits.MaxPropagations exhausted.
	StopPropagations
	// StopLearntBytes: the learnt-clause database outgrew
	// Limits.MaxLearntBytes.
	StopLearntBytes
	// StopDeadline: Limits.Deadline passed.
	StopDeadline
	// StopCancel: Limits.Cancel became readable.
	StopCancel
)

func (r StopReason) String() string {
	switch r {
	case StopConflicts:
		return "conflicts"
	case StopPropagations:
		return "propagations"
	case StopLearntBytes:
		return "learnt-bytes"
	case StopDeadline:
		return "deadline"
	case StopCancel:
		return "cancel"
	}
	return ""
}

// Budget reports whether the stop reason is a resource budget (retryable
// with a bigger budget), as opposed to a deadline or cancellation.
func (r StopReason) Budget() bool {
	return r == StopConflicts || r == StopPropagations || r == StopLearntBytes
}

// Limits bounds a Solve call. Zero values mean unlimited.
type Limits struct {
	// MaxConflicts bounds CDCL conflicts for this call.
	MaxConflicts int64
	// MaxPropagations bounds unit propagations for this call. Propagation
	// dominates solver wall time, so this is the closest proxy for a CPU
	// budget that stays deterministic across machines.
	MaxPropagations int64
	// MaxLearntBytes bounds the estimated memory held by the learnt-clause
	// database. When learning outruns reduction past this budget the solve
	// gives up instead of growing without bound.
	MaxLearntBytes int64
	Deadline       time.Time
	// Cancel aborts the search cooperatively when it becomes readable
	// (typically a context's Done channel). The solver polls it on the
	// same amortized cadence as MaxConflicts, so Solve returns Unknown
	// within a bounded number of search steps after cancellation.
	Cancel <-chan struct{}
	// Progress, when set, receives the search's effort deltas and event
	// marks on the amortized budget-check cadence, so concurrent readers
	// (a service progress or explain endpoint) never touch the hot-path
	// Stats fields. Shareable across concurrent solves — each publishes
	// only its own delta.
	Progress *Progress
}

// cancelled reports whether the cancel channel is readable.
func (l Limits) cancelled() bool {
	if l.Cancel == nil {
		return false
	}
	select {
	case <-l.Cancel:
		return true
	default:
		return false
	}
}

// Solver is a CDCL SAT solver. Create with New, add variables and clauses,
// then call Solve. A Solver may be re-solved after adding more clauses
// (incremental use); learnt clauses are retained.
type Solver struct {
	ca      []cnf.Lit // clause arena; see cref
	clauses []cref    // problem clauses, in arena order
	learnts []cref    // learnt clauses, in arena order

	watches [][]watcher // indexed by lit

	vals     []lbool // indexed by lit: the value of each literal
	level    []int32 // indexed by var
	reason   []cref  // indexed by var
	phase    []bool  // saved phase, indexed by var
	activity []float64
	varInc   float64

	heap    []cnf.Var // binary max-heap on activity
	heapPos []int32   // var -> heap index, -1 if absent

	trail    []cnf.Lit
	trailLim []int32 // decision level -> trail index
	qhead    int

	numVars int
	ok      bool // false once a top-level conflict is found

	opts     Options
	rndState uint64 // xorshift state for random branching (0 = disabled)

	stats Stats
	// learntBytes estimates the learnt-DB footprint; stopReason records
	// why the last SolveLimited returned Unknown (StopNone otherwise).
	learntBytes int64
	stopReason  StopReason
	// lbdHist counts learnt clauses by LBD: index i holds LBD i+1, the
	// last bucket everything >= lbdOverflowBucket+1. One increment per
	// learnt clause; published as deltas to the attached Progress.
	lbdHist [lbdOverflowBucket + 1]int64

	// debug enables expensive internal invariant checking after every
	// propagation fixpoint; used by fuzz-style tests.
	debug bool

	seen     []bool // analyze scratch
	minStk   []cnf.Lit
	clearBf  []cnf.Var
	learntBf []cnf.Lit // analyze's learnt clause, valid until the next conflict
	origBf   []cnf.Lit
	lvlStamp []uint32 // computeLBD: level -> stamp of the last clause that had it
	lbdStamp uint32
	litStamp []uint32 // AddClause: lit -> stamp of the last clause that had it
	addStamp uint32
	addBf    []cnf.Lit
	sortBf   []cref // reduceDB's ordering

	claInc float32
}

// New returns an empty solver with the classic heuristic configuration.
func New() *Solver {
	return NewWithOptions(Options{})
}

// NewWithOptions returns an empty solver using the given search
// heuristics. Zero-valued knobs fall back to the classic defaults, so
// NewWithOptions(Options{}) is identical to New.
func NewWithOptions(opts Options) *Solver {
	s := &Solver{ok: true, varInc: 1.0, claInc: 1.0, opts: opts.withDefaults()}
	s.rndState = s.opts.RandSeed
	s.ensureVar(0)
	return s
}

// Options returns the solver's (normalized) heuristic configuration.
func (s *Solver) Options() Options { return s.opts }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() cnf.Var {
	s.numVars++
	v := cnf.Var(s.numVars)
	s.ensureVar(v)
	return v
}

func (s *Solver) ensureVar(v cnf.Var) {
	need := int(v) + 1
	for len(s.level) < need {
		s.level = append(s.level, 0)
		s.reason = append(s.reason, crefUndef)
		s.phase = append(s.phase, s.opts.InitPhase)
		s.activity = append(s.activity, 0)
		s.heapPos = append(s.heapPos, -1)
		s.seen = append(s.seen, false)
	}
	for len(s.watches) < 2*need {
		s.watches = append(s.watches, nil)
		s.vals = append(s.vals, lUndef)
		s.litStamp = append(s.litStamp, 0)
	}
}

// ImportVars makes sure variables up to n exist (for loading a cnf.Formula).
func (s *Solver) ImportVars(n int) {
	for s.numVars < n {
		s.NewVar()
	}
}

// CloneProblem returns a fresh solver over this solver's problem clauses
// and top-level facts, searching under opts. Learnt clauses, saved phases,
// activities and statistics do not transfer: the clone explores the same
// problem from scratch, which is exactly what a portfolio race wants —
// same question, independent search trajectory. The receiver is only
// read, so concurrent clones are safe while no solve is running on it;
// only the level-0 prefix of the trail transfers.
func (s *Solver) CloneProblem(opts Options) *Solver {
	n := NewWithOptions(opts)
	n.ImportVars(s.numVars)
	if !s.ok {
		n.ok = false
		return n
	}
	s.eachProblemClause(n.AddClause)
	return n
}

// eachProblemClause calls f on the top-level facts, as unit clauses in
// trail order, then on the problem clauses in the order they were added,
// until f returns false. The literals alias the solver's storage.
func (s *Solver) eachProblemClause(f func(lits ...cnf.Lit) bool) {
	lvl0 := s.trail
	if len(s.trailLim) > 0 {
		lvl0 = s.trail[:s.trailLim[0]]
	}
	for _, l := range lvl0 {
		if !f(l) {
			return
		}
	}
	for _, c := range s.clauses {
		if !f(s.lits(c)...) {
			return
		}
	}
}

// ProblemClauses returns copies of the clauses CloneProblem copies: the
// top-level facts as unit clauses in trail order, then the problem
// clauses in the order they were added, as AddClause simplified them.
// Before the first search that is the problem as added; a search appends
// the top-level facts it derives. A problem found unsatisfiable while its
// clauses were added ends in the empty clause.
func (s *Solver) ProblemClauses() []cnf.Clause {
	var out []cnf.Clause
	s.eachProblemClause(func(lits ...cnf.Lit) bool {
		out = append(out, append(cnf.Clause(nil), lits...))
		return true
	})
	if !s.ok {
		out = append(out, cnf.Clause{})
	}
	return out
}

// LoadFormula imports all clauses of f.
func (s *Solver) LoadFormula(f *cnf.Formula) bool {
	s.ImportVars(f.NumVars())
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	return true
}

func (s *Solver) litValue(l cnf.Lit) lbool { return s.vals[l] }

// varValue is the value of v's positive literal.
func (s *Solver) varValue(v cnf.Var) lbool { return s.vals[cnf.PosLit(v)] }

// --- clause arena ---

// alloc appends a clause with the given literals and LBD to the arena.
// The literals are copied.
func (s *Solver) alloc(lits []cnf.Lit, lbd uint32) cref {
	c := cref(len(s.ca))
	s.ca = append(s.ca, cnf.Lit(len(lits)<<2), cnf.Lit(lbd), 0)
	s.ca = append(s.ca, lits...)
	return c
}

func (s *Solver) size(c cref) int { return int(s.ca[c] >> 2) }

// lits returns the clause's literals, aliasing the arena: valid until the
// next alloc or reduceDB.
func (s *Solver) lits(c cref) []cnf.Lit {
	b := int(c) + clauseHdr
	e := b + s.size(c)
	return s.ca[b:e:e]
}

func (s *Solver) lbd(c cref) uint32 { return uint32(s.ca[c+1]) }

func (s *Solver) act(c cref) float32 { return math.Float32frombits(uint32(s.ca[c+2])) }

func (s *Solver) setAct(c cref, a float32) { s.ca[c+2] = cnf.Lit(math.Float32bits(a)) }

// AddClause adds a problem clause. It returns false if the clause set is now
// unsatisfiable at the top level. Must be called at decision level 0 (i.e.
// between Solve calls).
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok {
		return false
	}
	// A previous Sat result leaves the model on the trail at a positive
	// decision level; new clauses are always added at level 0.
	s.backtrackTo(0)
	// Simplify: drop false lits, detect satisfied/tautological clauses.
	// litStamp[l] == addStamp marks l as already in this clause.
	s.addStamp++
	if s.addStamp == 0 {
		clear(s.litStamp)
		s.addStamp = 1
	}
	out := s.addBf[:0]
	for _, l := range lits {
		if int(l.Var()) > s.numVars {
			s.ImportVars(int(l.Var()))
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue
		}
		if s.litStamp[l] == s.addStamp {
			continue
		}
		if s.litStamp[l.Neg()] == s.addStamp {
			return true
		}
		s.litStamp[l] = s.addStamp
		out = append(out, l)
	}
	s.addBf = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.alloc(out, 0)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	l0, l1 := s.ca[c+clauseHdr], s.ca[c+clauseHdr+1]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{c, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{c, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from cref) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Neg()] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns a conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Neg()
		ws := s.watches[p]
		i, j := 0, 0
		confl := crefUndef
		for i < len(ws) {
			w := ws[i]
			// Quick check: blocker already true?
			if vals[w.blocker] == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Make sure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{c, first}
				i++
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := lits[1].Neg()
					s.watches[nl] = append(s.watches[nl], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				i++
				continue // watcher moved; do not keep
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			i++
			j++
			if vals[first] == lFalse {
				confl = c
				s.qhead = len(s.trail)
				// copy the remaining watchers
				for i < len(ws) {
					ws[j] = ws[i]
					i++
					j++
				}
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// --- VSIDS heap ---

func (s *Solver) heapLess(a, b cnf.Var) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapInsert(v cnf.Var) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapPos[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() cnf.Var {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heapPos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if len(s.heap) > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(int(s.heapPos[v]))
	}
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

// bumpClause bumps any clause, problem clauses included; the rescale
// covers only the learnt ones.
func (s *Solver) bumpClause(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.act(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= float32(s.opts.ClauseDecay) }

// clauseBytes is the learnt-DB footprint charged for a clause of n
// literals. It is a fixed estimate, above the 4n+12 arena bytes and two
// 8-byte watchers the clause holds, and must stay fixed: MaxLearntBytes
// budgets and the search.learnt_bytes counter are stated in it.
func clauseBytes(n int) int64 { return 64 + 4*int64(n) }

// --- conflict analysis ---

// analyze performs first-UIP learning. It returns the learnt clause (with
// the asserting literal first) and the backtrack level.
// The learnt slice is scratch, valid until the next call.
func (s *Solver) analyze(confl cref) ([]cnf.Lit, int) {
	learnt := append(s.learntBf[:0], cnf.LitUndef) // reserve slot 0 for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p cnf.Lit = cnf.LitUndef
	c := confl

	for {
		s.bumpClause(c)
		start := 0
		if p != cnf.LitUndef {
			start = 1 // skip the asserting literal of the reason
		}
		for _, q := range s.lits(c)[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal to expand on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		c = s.reason[v]
		if c == crefUndef {
			s.dumpState(p, counter)
			panic("sat: no reason in analyze")
		}
	}

	// Mark for minimization check. Keep a copy of the pre-minimization
	// literals: the in-place filter below overwrites dropped entries, and
	// their seen flags must still be cleared at the end (stale flags would
	// corrupt the next conflict analysis).
	for _, l := range learnt {
		s.seen[l.Var()] = true
	}
	orig := append(s.origBf[:0], learnt...)
	s.origBf = orig
	// Clause minimization: drop literals implied by the rest.
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[l.Var()] == crefUndef || !s.litRedundant(l) {
			out = append(out, l)
		}
	}
	learnt = out

	// Compute backtrack level: highest level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	// Clear seen flags.
	for _, l := range orig {
		s.seen[l.Var()] = false
	}
	for _, v := range s.clearBf {
		s.seen[v] = false
	}
	s.clearBf = s.clearBf[:0]
	s.learntBf = learnt
	return learnt, btLevel
}

// litRedundant checks (non-recursively, with an explicit stack) whether l is
// implied by other literals marked in seen — standard learnt clause
// minimization.
func (s *Solver) litRedundant(l cnf.Lit) bool {
	s.minStk = s.minStk[:0]
	s.minStk = append(s.minStk, l)
	top := len(s.clearBf)
	for len(s.minStk) > 0 {
		p := s.minStk[len(s.minStk)-1]
		s.minStk = s.minStk[:len(s.minStk)-1]
		c := s.reason[p.Var()]
		if c == crefUndef {
			// Reached a decision: not redundant, undo marks.
			for _, v := range s.clearBf[top:] {
				s.seen[v] = false
			}
			s.clearBf = s.clearBf[:top]
			return false
		}
		for _, q := range s.lits(c)[1:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crefUndef {
				for _, u := range s.clearBf[top:] {
					s.seen[u] = false
				}
				s.clearBf = s.clearBf[:top]
				return false
			}
			s.seen[v] = true
			s.clearBf = append(s.clearBf, v)
			s.minStk = append(s.minStk, q)
		}
	}
	return true
}

// computeLBD counts the distinct decision levels among lits.
// lvlStamp[lv] == lbdStamp marks level lv as already counted.
func (s *Solver) computeLBD(lits []cnf.Lit) uint32 {
	s.lbdStamp++
	if s.lbdStamp == 0 {
		clear(s.lvlStamp)
		s.lbdStamp = 1
	}
	n := uint32(0)
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		for lv >= len(s.lvlStamp) {
			s.lvlStamp = append(s.lvlStamp, 0)
		}
		if s.lvlStamp[lv] != s.lbdStamp {
			s.lvlStamp[lv] = s.lbdStamp
			n++
		}
	}
	return n
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(lim); i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l] = lUndef
		s.vals[l.Neg()] = lUndef
		s.phase[v] = !l.Sign()
		s.reason[v] = crefUndef
		s.heapInsert(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// --- restarts & reduction ---

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (MiniSat's formulation with base 2).
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

// restartInterval yields the next restart interval in conflicts: the
// Luby series scaled by base, or the geometric interval when configured.
func (s *Solver) restartInterval(base, curRestart int64, geomInterval float64) int64 {
	if s.opts.GeomRestarts {
		iv := int64(geomInterval)
		if iv < 1 {
			iv = 1
		}
		return iv
	}
	return base * luby(curRestart)
}

// nextRand advances the solver's deterministic xorshift64 state.
func (s *Solver) nextRand() uint64 {
	x := s.rndState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rndState = x
	return x
}

// randChance reports whether this decision should branch randomly.
func (s *Solver) randChance() bool {
	return float64(s.nextRand()%1024)/1024.0 < s.opts.RandFreq
}

// randomUnassigned samples the decision heap a few times for an
// unassigned variable; 0 means none found (caller falls back to VSIDS).
func (s *Solver) randomUnassigned() cnf.Var {
	for try := 0; try < 8 && len(s.heap) > 0; try++ {
		v := s.heap[s.nextRand()%uint64(len(s.heap))]
		if s.varValue(v) == lUndef {
			return v
		}
	}
	return 0
}

// reduceOrder returns the learnt clauses worst first: LBD descending,
// then activity ascending, and among equals the later-learnt first. A
// stable sort of the reversed list gives that tie order. The slice is
// scratch, valid until the next call.
func (s *Solver) reduceOrder() []cref {
	ls := append(s.sortBf[:0], s.learnts...)
	slices.Reverse(ls)
	slices.SortStableFunc(ls, func(a, b cref) int {
		if la, lb := s.lbd(a), s.lbd(b); la != lb {
			return cmp.Compare(lb, la)
		}
		return cmp.Compare(s.act(a), s.act(b))
	})
	s.sortBf = ls
	return ls
}

// reduceDB removes up to half of the learnt clauses, worst first, never
// one with LBD <= 2 or one that is the reason of a trail literal. It runs
// at level 0.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	ls := s.reduceOrder()
	s.markLocked(hdrLocked)
	removed := false
	for _, c := range ls[:len(ls)/2] {
		if s.lbd(c) <= 2 || s.ca[c]&hdrLocked != 0 {
			continue
		}
		s.ca[c] |= hdrDeleted
		removed = true
		s.stats.Removed++
		s.learntBytes -= clauseBytes(s.size(c))
	}
	if !removed {
		s.markLocked(0)
		return
	}
	s.compact()
	// Rebuild watches (simplest correct approach).
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
}

// markLocked sets (f = hdrLocked) or clears (f = 0) the locked flag of
// every clause that is the reason of a trail literal.
func (s *Solver) markLocked(f cnf.Lit) {
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			s.ca[r] = s.ca[r]&^hdrLocked | f
		}
	}
}

// compact slides the live clauses down over the deleted ones in address
// order, inside the one arena. clauses and learnts are both in address
// order, so one merged walk over them visits every clause in the arena
// and rewrites each list entry as it passes. A locked clause is the
// reason of exactly its first literal's variable, so that reason is
// rewritten on the spot too. Flags are cleared on the way.
func (s *Solver) compact() {
	to, ci, li, kept := 0, 0, 0, 0
	for ci < len(s.clauses) || li < len(s.learnts) {
		learnt := ci == len(s.clauses) || li < len(s.learnts) && s.learnts[li] < s.clauses[ci]
		var c cref
		if learnt {
			c = s.learnts[li]
			li++
		} else {
			c = s.clauses[ci]
			ci++
		}
		hdr := s.ca[c]
		if hdr&hdrDeleted != 0 {
			continue
		}
		n := clauseHdr + int(hdr>>2)
		nc := cref(to)
		copy(s.ca[to:to+n], s.ca[c:int(c)+n])
		s.ca[to] = hdr &^ (hdrLocked | hdrDeleted)
		to += n
		if hdr&hdrLocked != 0 {
			v := s.ca[nc+clauseHdr].Var()
			if s.debug && s.reason[v] != c {
				panic("sat: locked clause is not the reason of its first literal")
			}
			s.reason[v] = nc
		}
		if learnt {
			s.learnts[kept] = nc
			kept++
		} else {
			s.clauses[ci-1] = nc
		}
	}
	s.learnts = s.learnts[:kept]
	s.ca = s.ca[:to]
}

// --- main search ---

// Solve searches for a satisfying assignment under the given assumptions.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	return s.SolveLimited(Limits{}, assumptions...)
}

// budgetStop reports which (if any) of the call's resource budgets is
// exhausted; deadline and cancellation are checked separately because
// they poll the clock / a channel rather than counters.
func (s *Solver) budgetStop(lim Limits, conflicts0, props0 int64) StopReason {
	if lim.MaxConflicts > 0 && s.stats.Conflicts-conflicts0 > lim.MaxConflicts {
		return StopConflicts
	}
	if lim.MaxPropagations > 0 && s.stats.Propagations-props0 > lim.MaxPropagations {
		return StopPropagations
	}
	if lim.MaxLearntBytes > 0 && s.learntBytes > lim.MaxLearntBytes {
		return StopLearntBytes
	}
	return StopNone
}

// budgetFraction reports the largest consumed fraction of any configured
// budget for this call, in [0, 1]; 0 when no budget is set. It feeds the
// live progress snapshot so pollers can see how close a long solve is to
// giving up.
func (s *Solver) budgetFraction(lim Limits, conflicts0, props0 int64, start time.Time) float64 {
	frac := 0.0
	if lim.MaxConflicts > 0 {
		if f := float64(s.stats.Conflicts-conflicts0) / float64(lim.MaxConflicts); f > frac {
			frac = f
		}
	}
	if lim.MaxPropagations > 0 {
		if f := float64(s.stats.Propagations-props0) / float64(lim.MaxPropagations); f > frac {
			frac = f
		}
	}
	if lim.MaxLearntBytes > 0 {
		if f := float64(s.learntBytes) / float64(lim.MaxLearntBytes); f > frac {
			frac = f
		}
	}
	if !lim.Deadline.IsZero() {
		if total := lim.Deadline.Sub(start); total > 0 {
			if f := float64(time.Since(start)) / float64(total); f > frac {
				frac = f
			}
		}
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// SolveLimited is Solve with a resource budget; it returns Unknown when the
// budget is exhausted, with StopReason() recording which limit fired.
func (s *Solver) SolveLimited(lim Limits, assumptions ...cnf.Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.stopReason = StopNone
	if lim.cancelled() {
		s.stopReason = StopCancel
		return Unknown
	}
	s.backtrackTo(0)
	// (Re)fill the heap with all unassigned vars.
	for v := cnf.Var(1); int(v) <= s.numVars; v++ {
		if s.varValue(v) == lUndef {
			s.heapInsert(v)
		}
	}
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat
	}

	restartBase := s.opts.RestartBase
	conflictsAtStart := s.stats.Conflicts
	propsAtStart := s.stats.Propagations
	var curRestart int64 = 0
	geomInterval := float64(restartBase)
	nextRestart := s.stats.Conflicts + s.restartInterval(restartBase, curRestart, geomInterval)
	learntLimit := int64(float64(len(s.clauses))*s.opts.LearntFrac) + s.opts.LearntBase
	checkTick := 0

	// Live progress: publish effort deltas on the amortized check cadence
	// and once more on every exit path. The hot loop never touches the
	// shared Progress outside publish calls, so Stats stays unsynchronized
	// on the solver's own goroutine.
	solveStart := time.Now()
	pub := progressPub{p: lim.Progress, name: s.opts.Name}
	if lim.Progress != nil {
		pub.last = s.stats
		pub.last.LearntBytes = s.learntBytes
		pub.lastLBD = s.lbdHist
		pub.event(s, "solve_start", 0)
		defer func() {
			pub.publish(s, s.budgetFraction(lim, conflictsAtStart, propsAtStart, solveStart))
			pub.event(s, "solve_end", int64(s.stopReason))
		}()
	}

	for {
		confl := s.propagate()
		if confl == crefUndef && s.debug {
			s.checkInvariants("afterprop")
		}
		if confl != crefUndef {
			s.stats.Conflicts++
			// Conflict storms bypass the decision-path budget check below,
			// so run the full budget/cancel check here too (same 64-step
			// cadence) — a pathological instance can burn its whole budget
			// without ever reaching a decision.
			if s.stats.Conflicts&63 == 0 {
				if pub.p != nil {
					pub.publish(s, s.budgetFraction(lim, conflictsAtStart, propsAtStart, solveStart))
				}
				if r := s.budgetStop(lim, conflictsAtStart, propsAtStart); r != StopNone {
					s.stopReason = r
					s.backtrackTo(0)
					return Unknown
				}
				if lim.cancelled() {
					s.stopReason = StopCancel
					s.backtrackTo(0)
					return Unknown
				}
				if !lim.Deadline.IsZero() && s.stats.Conflicts&1023 == 0 && time.Now().After(lim.Deadline) {
					s.stopReason = StopDeadline
					s.backtrackTo(0)
					return Unknown
				}
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			// Don't backtrack past the assumptions.
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				if s.decisionLevel() > 0 {
					s.backtrackTo(0)
				}
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				lbd := s.computeLBD(learnt)
				if b := int(lbd) - 1; b >= 0 {
					if b > lbdOverflowBucket {
						b = lbdOverflowBucket
					}
					s.lbdHist[b]++
				}
				c := s.alloc(learnt, lbd)
				s.learnts = append(s.learnts, c)
				s.stats.Learnt++
				s.learntBytes += clauseBytes(len(learnt))
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayVar()
			s.decayClause()
			continue
		}

		// Budget check (amortized).
		checkTick++
		if checkTick&63 == 0 {
			if pub.p != nil {
				pub.publish(s, s.budgetFraction(lim, conflictsAtStart, propsAtStart, solveStart))
			}
			if r := s.budgetStop(lim, conflictsAtStart, propsAtStart); r != StopNone {
				s.stopReason = r
				s.backtrackTo(0)
				return Unknown
			}
			if lim.cancelled() {
				s.stopReason = StopCancel
				s.backtrackTo(0)
				return Unknown
			}
			if !lim.Deadline.IsZero() && checkTick&1023 == 0 && time.Now().After(lim.Deadline) {
				s.stopReason = StopDeadline
				s.backtrackTo(0)
				return Unknown
			}
		}

		// Restart?
		if s.stats.Conflicts >= nextRestart && s.decisionLevel() > len(assumptions) {
			s.stats.Restarts++
			curRestart++
			geomInterval *= s.opts.RestartGrowth
			nextRestart = s.stats.Conflicts + s.restartInterval(restartBase, curRestart, geomInterval)
			s.backtrackTo(len(assumptions))
			pub.event(s, "restart", nextRestart-s.stats.Conflicts)
		}

		// Reduce learnt DB? Watch re-attachment is only sound at level 0,
		// so force a full restart first.
		if int64(len(s.learnts)) > learntLimit {
			s.backtrackTo(0)
			before := int64(len(s.learnts))
			s.reduceDB()
			pub.event(s, "simplify", before-int64(len(s.learnts)))
			learntLimit = int64(float64(learntLimit) * s.opts.LearntGrowth)
		}

		// Pick the next decision: assumptions first.
		var next cnf.Lit = cnf.LitUndef
		for s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				// Already satisfied; open an empty decision level.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				return Unsat // conflicting assumptions
			}
			next = a
			break
		}
		if next == cnf.LitUndef {
			if s.opts.RandFreq > 0 && s.randChance() {
				if v := s.randomUnassigned(); v != 0 {
					next = cnf.MkLit(v, !s.phase[v])
				}
			}
			if next == cnf.LitUndef {
				for len(s.heap) > 0 {
					v := s.heapPop()
					if s.varValue(v) == lUndef {
						next = cnf.MkLit(v, !s.phase[v])
						break
					}
				}
			}
			if next == cnf.LitUndef {
				return Sat // all variables assigned
			}
			s.stats.Decisions++
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Value returns the model value of v after a Sat result.
func (s *Solver) Value(v cnf.Var) bool { return s.varValue(v) == lTrue }

// LitTrue reports whether literal l is true in the model.
func (s *Solver) LitTrue(l cnf.Lit) bool { return s.litValue(l) == lTrue }

// Stats returns search statistics, with the current learnt-DB footprint
// estimate folded in.
func (s *Solver) Stats() Stats {
	st := s.stats
	st.LearntBytes = s.learntBytes
	return st
}

// StopReason reports why the last SolveLimited returned Unknown
// (StopNone after a conclusive answer).
func (s *Solver) StopReason() StopReason { return s.stopReason }

// LearntBytes returns the estimated learnt-clause database footprint.
func (s *Solver) LearntBytes() int64 { return s.learntBytes }

// NumClauses returns the problem clause count (excluding learnt clauses).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumVarsAllocated returns the number of variables.
func (s *Solver) NumVarsAllocated() int { return s.numVars }

// SetDebug toggles expensive internal invariant checking (test use only).
func (s *Solver) SetDebug(on bool) { s.debug = on }

// dumpState prints trail diagnostics when an internal invariant breaks.
func (s *Solver) dumpState(p cnf.Lit, counter int) {
	fmt.Fprintf(os.Stderr, "ANALYZE BUG: p=%v var=%d level=%d dl=%d counter=%d trailLen=%d\n",
		p, p.Var(), s.level[p.Var()], s.decisionLevel(), counter, len(s.trail))
	for i := len(s.trail) - 1; i >= 0 && i > len(s.trail)-30; i-- {
		l := s.trail[i]
		fmt.Fprintf(os.Stderr, "  trail[%d] = %v lvl=%d seen=%v reason=%d\n", i, l, s.level[l.Var()], s.seen[l.Var()], s.reason[l.Var()])
	}
}

// checkInvariants (debug only) verifies that no clause is fully false or
// unnoticed-unit after propagation reached fixpoint.
func (s *Solver) checkInvariants(where string) {
	for _, c := range slices.Concat(s.clauses, s.learnts) {
		nFalse, nTrue, nUndef := 0, 0, 0
		for _, l := range s.lits(c) {
			switch s.litValue(l) {
			case lFalse:
				nFalse++
			case lTrue:
				nTrue++
			default:
				nUndef++
			}
		}
		if nTrue == 0 && nUndef == 0 {
			fmt.Fprintf(os.Stderr, "INVARIANT[%s]: clause %v fully false, dl=%d\n", where, s.lits(c), s.decisionLevel())
			panic("missed conflict")
		}
		if nTrue == 0 && nUndef == 1 {
			fmt.Fprintf(os.Stderr, "INVARIANT[%s]: clause %v unit undetected, dl=%d\n", where, s.lits(c), s.decisionLevel())
			panic("missed unit")
		}
	}
}
