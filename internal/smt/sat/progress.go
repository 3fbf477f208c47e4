package sat

import (
	"sync"
	"time"
)

// Progress is the one feed out of the CDCL search. Solvers publish into
// it on the amortized budget-check cadence (every 64 conflicts or
// decisions) and at restart/simplify/solve boundaries, so the CDCL hot
// loop never touches it; Stats stays unsynchronized on the solver's own
// goroutine. From that feed Progress keeps the live effort counters
// (Snapshot: the service's /v1/jobs/{id}/progress view) and the
// retrospective record of the search (Report: a bounded timeline of
// effort samples, restart/simplify/solve event marks, decision-depth and
// learnt-clause LBD distributions, and a per-configuration effort
// breakdown for portfolio races). Readers call both from any goroutine
// while solvers publish.
//
// Publication is by delta, which makes one Progress shareable across the
// concurrent solvers of a portfolio race, the sequential checks of an
// fperf synthesis and the re-solves of a session sweep alike: each
// solver adds what it did since its last publish, so every counter is
// the monotonically increasing sum of all search effort spent on the job
// so far. The zero value is ready to use; Snapshot and Report are
// nil-safe.
type Progress struct {
	mu sync.Mutex
	// start is the first solve_start and end the latest solve_end: every
	// at_ms and the report's duration count from start, so time spent
	// before search (queueing, parsing, compiling) is not billed to it.
	// The clock is read under mu, so racing solvers record in time order.
	start, end time.Time
	running    int64 // solvers between solve_start and solve_end
	solves     int64 // SolveLimited calls that published here
	totals     Stats
	maxBudget  float64

	samples       []SearchSample
	stride        int // publishes per kept sample (0 reads as 1); doubles on decimation
	skip          int // publishes to skip before the next kept sample
	events        []SearchEvent
	eventsDropped int64
	depth         [len(depthBucketBounds) + 1]int64
	lbd           [lbdOverflowBucket + 1]int64
	configs       map[string]*ConfigEffort
}

// maxSamples bounds the timeline; when full, Progress drops every other
// sample and doubles its stride, so long solves keep a shape-preserving,
// progressively coarser timeline instead of losing the tail. maxEvents
// bounds event marks: overflow increments EventsDropped instead of
// growing without bound.
const (
	maxSamples = 512
	maxEvents  = 512
)

// depthBucketBounds are the inclusive upper bounds of the decision-depth
// histogram buckets; a final overflow bucket catches deeper samples.
var depthBucketBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// lbdOverflowBucket is the index of the "LBD >= 17" bucket; buckets
// 0..15 hold exact LBDs 1..16.
const lbdOverflowBucket = 16

// ProgressSnapshot is a point-in-time copy of a Progress, JSON-friendly.
type ProgressSnapshot struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learnt       int64 `json:"learnt_clauses"`
	LearntBytes  int64 `json:"learnt_bytes"`
	// Solves counts SolveLimited calls so far (fperf runs many per job;
	// a portfolio race runs one per config).
	Solves int64 `json:"solves"`
	// Running is how many solvers are mid-search right now.
	Running int64 `json:"running"`
	// BudgetFraction is the largest fraction of any configured resource
	// budget (conflicts, propagations, learnt bytes, deadline) any solver
	// has consumed, in [0, 1]; 0 when no budget is set.
	BudgetFraction float64 `json:"budget_fraction"`
}

// Snapshot reads the current progress. Nil-safe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Progress) snapshotLocked() ProgressSnapshot {
	return ProgressSnapshot{
		Conflicts:      p.totals.Conflicts,
		Decisions:      p.totals.Decisions,
		Propagations:   p.totals.Propagations,
		Restarts:       p.totals.Restarts,
		Learnt:         p.totals.Learnt,
		LearntBytes:    p.totals.LearntBytes,
		Solves:         p.solves,
		Running:        p.running,
		BudgetFraction: p.maxBudget,
	}
}

// atLocked converts now to milliseconds since the first solve_start,
// starting the clock if nothing has been recorded yet.
func (p *Progress) atLocked(now time.Time) float64 {
	if p.start.IsZero() {
		p.start = now
	}
	return float64(now.Sub(p.start).Microseconds()) / 1000
}

// observe ingests one publish-cadence point from a solver: the effort
// delta since that solver's previous publish, its consumed budget
// fraction, its current decision depth and the delta of its LBD
// histogram. Samples carry the job-wide totals after the delta, so
// racing solvers' samples are cumulative in the order they are recorded.
func (p *Progress) observe(config string, d Stats, frac float64, depth int, lbdDelta *[lbdOverflowBucket + 1]int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	at := p.atLocked(time.Now())

	p.totals.Conflicts += d.Conflicts
	p.totals.Decisions += d.Decisions
	p.totals.Propagations += d.Propagations
	p.totals.Restarts += d.Restarts
	p.totals.Learnt += d.Learnt
	p.totals.LearntBytes += d.LearntBytes
	p.maxBudget = max(p.maxBudget, min(frac, 1))

	ce := p.effortLocked(config)
	ce.Conflicts += d.Conflicts
	ce.Decisions += d.Decisions
	ce.Propagations += d.Propagations
	ce.Restarts += d.Restarts
	ce.Learnt += d.Learnt

	p.depth[depthBucket(int64(depth))]++
	if lbdDelta != nil {
		for i, n := range lbdDelta {
			p.lbd[i] += n
		}
	}

	if p.skip > 0 {
		p.skip--
		return
	}
	p.samples = append(p.samples, SearchSample{
		AtMS:           at,
		Conflicts:      p.totals.Conflicts,
		Decisions:      p.totals.Decisions,
		Propagations:   p.totals.Propagations,
		Restarts:       p.totals.Restarts,
		Learnt:         p.totals.Learnt,
		LearntBytes:    p.totals.LearntBytes,
		BudgetFraction: p.maxBudget,
		Depth:          depth,
		Config:         config,
	})
	if len(p.samples) >= maxSamples {
		// Decimate: keep every other sample, double the stride. The
		// timeline keeps its overall shape at half the resolution.
		kept := p.samples[:0]
		for i := 0; i < len(p.samples); i += 2 {
			kept = append(kept, p.samples[i])
		}
		p.samples = kept
		p.stride = max(p.stride, 1) * 2
	}
	p.skip = p.stride - 1
}

// event records a discrete search event mark. unpublished is the
// publishing solver's conflicts since its last publish, so the mark
// carries the job-wide count at the moment it fired. solve_start and
// solve_end also keep the solve and running counts and the clock.
func (p *Progress) event(kind, config string, unpublished, detail int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	at := p.atLocked(now)
	switch kind {
	case "solve_start":
		p.solves++
		p.running++
		p.effortLocked(config).Solves++
	case "solve_end":
		p.running--
		p.end = now
	}
	if len(p.events) >= maxEvents {
		p.eventsDropped++
		return
	}
	p.events = append(p.events, SearchEvent{
		AtMS:      at,
		Kind:      kind,
		Config:    config,
		Conflicts: p.totals.Conflicts + unpublished,
		Detail:    detail,
	})
}

// effortLocked returns (creating if needed) the per-config aggregate.
func (p *Progress) effortLocked(config string) *ConfigEffort {
	ce := p.configs[config]
	if ce == nil {
		if p.configs == nil {
			p.configs = make(map[string]*ConfigEffort)
		}
		ce = &ConfigEffort{Name: config}
		p.configs[config] = ce
	}
	return ce
}

// progressPub tracks one SolveLimited call's last-published counters so
// repeated publishes add only the delta since the previous one.
type progressPub struct {
	p       *Progress
	name    string // Options.Name of the publishing solver (portfolio label)
	last    Stats
	lastLBD [lbdOverflowBucket + 1]int64
}

// publish pushes the effort accumulated since the previous publish, the
// current budget fraction, the solver's decision depth and the delta of
// its LBD histogram.
func (pp *progressPub) publish(s *Solver, frac float64) {
	if pp.p == nil {
		return
	}
	cur := s.stats
	cur.LearntBytes = s.learntBytes
	d := Stats{
		Conflicts:    cur.Conflicts - pp.last.Conflicts,
		Decisions:    cur.Decisions - pp.last.Decisions,
		Propagations: cur.Propagations - pp.last.Propagations,
		Restarts:     cur.Restarts - pp.last.Restarts,
		Learnt:       cur.Learnt - pp.last.Learnt,
		LearntBytes:  cur.LearntBytes - pp.last.LearntBytes,
	}
	var lbdDelta [lbdOverflowBucket + 1]int64
	for i, n := range s.lbdHist {
		lbdDelta[i] = n - pp.lastLBD[i]
	}
	pp.last, pp.lastLBD = cur, s.lbdHist
	pp.p.observe(pp.name, d, frac, s.decisionLevel(), &lbdDelta)
}

// event forwards a discrete search event (restart, simplify, solve
// boundary) with this solver's not-yet-published conflicts.
func (pp *progressPub) event(s *Solver, kind string, detail int64) {
	if pp.p == nil {
		return
	}
	pp.p.event(kind, pp.name, s.stats.Conflicts-pp.last.Conflicts, detail)
}
