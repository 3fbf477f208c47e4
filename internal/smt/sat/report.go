package sat

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SearchRecorder turns the live Progress feed into a retrospective
// SearchReport: a bounded timeline of effort samples, restart/simplify
// event marks, decision-depth and learnt-clause LBD distributions, and a
// per-configuration effort breakdown for portfolio races.
//
// The recorder rides on Progress (SetRecorder), so it reaches every
// solver the Progress reaches — portfolio goroutines, fperf's sequential
// checks, session re-solves — with no extra plumbing. Solvers feed it
// only on the amortized budget-check cadence (the same publish calls that
// update Progress) plus one call per restart/simplify/solve boundary, so
// the CDCL hot loop never sees it. All methods are nil-safe and
// mutex-guarded; Report may be called concurrently with live solving.
type SearchRecorder struct {
	start time.Time

	mu            sync.Mutex
	samples       []SearchSample
	stride        int // publishes per kept sample; doubles on decimation
	skip          int // publishes to skip before the next kept sample
	events        []SearchEvent
	eventsDropped int64
	depth         [len(depthBucketBounds) + 1]int64
	lbd           [lbdOverflowBucket + 1]int64
	totals        Stats
	maxBudget     float64
	solves        int64
	configs       map[string]*ConfigEffort
}

// maxSamples bounds the timeline; when full the recorder drops every
// other sample and doubles its stride, so long solves keep a
// shape-preserving, progressively coarser timeline instead of losing the
// tail. maxEvents bounds event marks the same way drops are counted for
// spans: overflow increments EventsDropped instead of growing without
// bound.
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

// NewSearchRecorder returns an empty recorder whose timeline starts now.
func NewSearchRecorder() *SearchRecorder {
	return &SearchRecorder{
		start:   time.Now(),
		stride:  1,
		configs: make(map[string]*ConfigEffort),
	}
}

// SearchSample is one point on the job-wide effort timeline. The
// counters are cumulative across every solver attached to the job's
// Progress; Depth and Config describe the particular solver that
// published this sample.
type SearchSample struct {
	AtMS           float64 `json:"at_ms"`
	Conflicts      int64   `json:"conflicts"`
	Decisions      int64   `json:"decisions"`
	Propagations   int64   `json:"propagations"`
	Restarts       int64   `json:"restarts"`
	Learnt         int64   `json:"learnt_clauses"`
	LearntBytes    int64   `json:"learnt_bytes"`
	BudgetFraction float64 `json:"budget_fraction,omitempty"`
	Depth          int     `json:"depth"`
	Config         string  `json:"config,omitempty"`
}

// SearchEvent marks a discrete search occurrence on the timeline.
// Kind is one of "restart" (Detail: next restart interval in conflicts),
// "simplify" (Detail: learnt clauses removed), "solve_start" or
// "solve_end" (Detail: the solver's StopReason, 0 when conclusive).
// Conflicts is the job-wide cumulative count when the event fired.
type SearchEvent struct {
	AtMS      float64 `json:"at_ms"`
	Kind      string  `json:"kind"`
	Config    string  `json:"config,omitempty"`
	Conflicts int64   `json:"conflicts"`
	Detail    int64   `json:"detail,omitempty"`
}

// ConfigEffort aggregates one portfolio configuration's share of the
// job's search effort. For non-portfolio solves there is a single entry
// with an empty name.
type ConfigEffort struct {
	Name         string `json:"name"`
	Solves       int64  `json:"solves"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Restarts     int64  `json:"restarts"`
	Learnt       int64  `json:"learnt_clauses"`
	Winner       bool   `json:"winner,omitempty"`
}

// DistBucket is one histogram bucket: Count observations at most Le
// (and above the previous bucket's bound); Le is "+inf" for overflow.
type DistBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Distribution is a fixed-bucket histogram; zero-count buckets are
// omitted.
type Distribution struct {
	Count   int64        `json:"count"`
	Buckets []DistBucket `json:"buckets,omitempty"`
}

// SearchReport is the introspectable record of one job's search,
// attached to service results, served by /v1/jobs/{id}/explain and
// rendered by buffyc -explain. It must survive a JSON round trip (the
// durable store serializes results), so everything here is plain data.
type SearchReport struct {
	DurationMS float64 `json:"duration_ms"`
	// SampleStride is how many publish-cadence points each kept sample
	// represents (1 = every publish kept; doubles when the timeline is
	// decimated).
	SampleStride  int              `json:"sample_stride"`
	Samples       []SearchSample   `json:"samples"`
	Events        []SearchEvent    `json:"events,omitempty"`
	EventsDropped int64            `json:"events_dropped,omitempty"`
	Totals        ProgressSnapshot `json:"totals"`
	Depth         Distribution     `json:"decision_depth"`
	LBD           Distribution     `json:"lbd"`
	Configs       []ConfigEffort   `json:"configs,omitempty"`
	// Winner names the portfolio configuration that produced the answer;
	// empty for single-config solves. Set by the caller that knows the
	// race outcome (service / buffyc), not by the recorder.
	Winner string `json:"winner,omitempty"`
}

// observe ingests one publish-cadence point from a solver: the effort
// delta since that solver's previous publish, the job-wide progress it
// was applied to, the solver's current decision depth, and the delta of
// its LBD histogram. The progress is snapshotted under r.mu, so racing
// solvers' samples are cumulative in the order they are recorded.
func (r *SearchRecorder) observe(config string, d Stats, p *Progress, depth int, lbdDelta *[lbdOverflowBucket + 1]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := time.Since(r.start)
	snap := p.Snapshot()

	r.totals.Conflicts += d.Conflicts
	r.totals.Decisions += d.Decisions
	r.totals.Propagations += d.Propagations
	r.totals.Restarts += d.Restarts
	r.totals.Learnt += d.Learnt
	r.totals.LearntBytes += d.LearntBytes
	if snap.BudgetFraction > r.maxBudget {
		r.maxBudget = snap.BudgetFraction
	}

	ce := r.effortLocked(config)
	ce.Conflicts += d.Conflicts
	ce.Decisions += d.Decisions
	ce.Propagations += d.Propagations
	ce.Restarts += d.Restarts
	ce.Learnt += d.Learnt

	r.depth[depthBucket(int64(depth))]++
	if lbdDelta != nil {
		for i, n := range lbdDelta {
			r.lbd[i] += n
		}
	}

	if r.skip > 0 {
		r.skip--
		return
	}
	r.samples = append(r.samples, SearchSample{
		AtMS:           float64(at.Microseconds()) / 1000,
		Conflicts:      snap.Conflicts,
		Decisions:      snap.Decisions,
		Propagations:   snap.Propagations,
		Restarts:       snap.Restarts,
		Learnt:         snap.Learnt,
		LearntBytes:    snap.LearntBytes,
		BudgetFraction: snap.BudgetFraction,
		Depth:          depth,
		Config:         config,
	})
	r.skip = r.stride - 1
	if len(r.samples) >= maxSamples {
		// Decimate: keep every other sample, double the stride. The
		// timeline keeps its overall shape at half the resolution.
		kept := r.samples[:0]
		for i := 0; i < len(r.samples); i += 2 {
			kept = append(kept, r.samples[i])
		}
		r.samples = kept
		r.stride *= 2
		r.skip = r.stride - 1
	}
}

// event records a discrete search event mark.
func (r *SearchRecorder) event(kind, config string, conflicts, detail int64) {
	if r == nil {
		return
	}
	at := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == "solve_start" {
		r.solves++
		r.effortLocked(config).Solves++
	}
	if len(r.events) >= maxEvents {
		r.eventsDropped++
		return
	}
	r.events = append(r.events, SearchEvent{
		AtMS:      float64(at.Microseconds()) / 1000,
		Kind:      kind,
		Config:    config,
		Conflicts: conflicts,
		Detail:    detail,
	})
}

// effortLocked returns (creating if needed) the per-config aggregate.
func (r *SearchRecorder) effortLocked(config string) *ConfigEffort {
	ce := r.configs[config]
	if ce == nil {
		ce = &ConfigEffort{Name: config}
		r.configs[config] = ce
	}
	return ce
}

// depthBucket maps a decision depth to its histogram bucket index.
func depthBucket(d int64) int {
	for i, b := range depthBucketBounds {
		if d <= b {
			return i
		}
	}
	return len(depthBucketBounds)
}

// Report snapshots the recorder into a standalone SearchReport. Safe to
// call while solvers are still publishing; the result is internally
// consistent under the recorder's lock. Nil-safe (returns nil).
func (r *SearchRecorder) Report() *SearchReport {
	if r == nil {
		return nil
	}
	dur := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()

	rep := &SearchReport{
		DurationMS:    float64(dur.Microseconds()) / 1000,
		SampleStride:  r.stride,
		Samples:       append([]SearchSample(nil), r.samples...),
		Events:        append([]SearchEvent(nil), r.events...),
		EventsDropped: r.eventsDropped,
		Totals: ProgressSnapshot{
			Conflicts:      r.totals.Conflicts,
			Decisions:      r.totals.Decisions,
			Propagations:   r.totals.Propagations,
			Restarts:       r.totals.Restarts,
			Learnt:         r.totals.Learnt,
			LearntBytes:    r.totals.LearntBytes,
			Solves:         r.solves,
			BudgetFraction: r.maxBudget,
		},
	}

	for i, n := range r.depth {
		rep.Depth.Count += n
		if n == 0 {
			continue
		}
		le := "+inf"
		if i < len(depthBucketBounds) {
			le = fmt.Sprintf("%d", depthBucketBounds[i])
		}
		rep.Depth.Buckets = append(rep.Depth.Buckets, DistBucket{Le: le, Count: n})
	}
	for i, n := range r.lbd {
		rep.LBD.Count += n
		if n == 0 {
			continue
		}
		le := "+inf"
		if i < lbdOverflowBucket {
			le = fmt.Sprintf("%d", i+1)
		}
		rep.LBD.Buckets = append(rep.LBD.Buckets, DistBucket{Le: le, Count: n})
	}

	for _, ce := range r.configs {
		rep.Configs = append(rep.Configs, *ce)
	}
	sort.Slice(rep.Configs, func(i, j int) bool {
		if rep.Configs[i].Conflicts != rep.Configs[j].Conflicts {
			return rep.Configs[i].Conflicts > rep.Configs[j].Conflicts
		}
		return rep.Configs[i].Name < rep.Configs[j].Name
	})
	return rep
}

// sparkRunes render a series as a one-line unicode sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// downsample reduces a series to at most n points by averaging runs, so
// sparklines fit a terminal line regardless of sample count.
func downsample(vals []float64, n int) []float64 {
	if len(vals) <= n {
		return vals
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(vals)/n, (i+1)*len(vals)/n
		if hi == lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		out = append(out, sum/float64(hi-lo))
	}
	return out
}

// Render formats the report as a human-readable terminal block:
// sparkline timelines of per-sample effort deltas, event counts, the
// depth/LBD histograms as bars, and the per-config table (winner
// starred). Nil-safe (returns "").
func (r *SearchReport) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "search: %d conflicts, %d propagations, %d restarts, %d learnt in %.1fms (%d solves)\n",
		r.Totals.Conflicts, r.Totals.Propagations, r.Totals.Restarts, r.Totals.Learnt, r.DurationMS, r.Totals.Solves)
	if r.Totals.BudgetFraction > 0 {
		fmt.Fprintf(&b, "budget: %.0f%% of the tightest resource budget consumed\n", r.Totals.BudgetFraction*100)
	}

	if len(r.Samples) >= 2 {
		const width = 60
		deltas := func(f func(SearchSample) float64) []float64 {
			out := make([]float64, 0, len(r.Samples)-1)
			for i := 1; i < len(r.Samples); i++ {
				d := f(r.Samples[i]) - f(r.Samples[i-1])
				if d < 0 {
					d = 0
				}
				out = append(out, d)
			}
			return downsample(out, width)
		}
		abs := func(f func(SearchSample) float64) []float64 {
			out := make([]float64, 0, len(r.Samples))
			for _, s := range r.Samples {
				out = append(out, f(s))
			}
			return downsample(out, width)
		}
		fmt.Fprintf(&b, "timeline (%d samples, stride %d, %.1fms span):\n", len(r.Samples), r.SampleStride, r.Samples[len(r.Samples)-1].AtMS-r.Samples[0].AtMS)
		fmt.Fprintf(&b, "  conflicts/sample    %s\n", sparkline(deltas(func(s SearchSample) float64 { return float64(s.Conflicts) })))
		fmt.Fprintf(&b, "  propagations/sample %s\n", sparkline(deltas(func(s SearchSample) float64 { return float64(s.Propagations) })))
		fmt.Fprintf(&b, "  learnt bytes        %s\n", sparkline(abs(func(s SearchSample) float64 { return float64(s.LearntBytes) })))
		fmt.Fprintf(&b, "  decision depth      %s\n", sparkline(abs(func(s SearchSample) float64 { return float64(s.Depth) })))
	}

	if len(r.Events) > 0 {
		counts := map[string]int{}
		for _, e := range r.Events {
			counts[e.Kind]++
		}
		fmt.Fprintf(&b, "events: %d restarts, %d simplify rounds, %d solves",
			counts["restart"], counts["simplify"], counts["solve_start"])
		if r.EventsDropped > 0 {
			fmt.Fprintf(&b, " (+%d marks dropped)", r.EventsDropped)
		}
		b.WriteString("\n")
	}

	histogram := func(name string, d Distribution) {
		if d.Count == 0 {
			return
		}
		fmt.Fprintf(&b, "%s (%d observations):\n", name, d.Count)
		max := int64(1)
		for _, bk := range d.Buckets {
			if bk.Count > max {
				max = bk.Count
			}
		}
		for _, bk := range d.Buckets {
			bar := strings.Repeat("█", int(bk.Count*30/max)+1)
			fmt.Fprintf(&b, "  le %-5s %8d %s\n", bk.Le, bk.Count, bar)
		}
	}
	histogram("decision depth at sample", r.Depth)
	histogram("learnt-clause LBD", r.LBD)

	if len(r.Configs) > 1 || (len(r.Configs) == 1 && r.Configs[0].Name != "") {
		fmt.Fprintf(&b, "%-16s %8s %10s %12s %8s %7s\n", "config", "solves", "conflicts", "propagations", "restarts", "learnt")
		for _, c := range r.Configs {
			marker := " "
			if c.Winner || (r.Winner != "" && c.Name == r.Winner) {
				marker = "*"
			}
			fmt.Fprintf(&b, "%-15s%s %8d %10d %12d %8d %7d\n",
				c.Name, marker, c.Solves, c.Conflicts, c.Propagations, c.Restarts, c.Learnt)
		}
		if r.Winner != "" {
			fmt.Fprintf(&b, "winner: %s\n", r.Winner)
		}
	}
	return b.String()
}
