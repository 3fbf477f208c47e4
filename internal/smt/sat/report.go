package sat

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

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
	// race outcome (service / buffyc), not by Progress.
	Winner string `json:"winner,omitempty"`
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

// Report snapshots the search into a standalone SearchReport. Safe to
// call while solvers are still publishing; the result is internally
// consistent under the Progress lock. Nil-safe (returns nil).
func (p *Progress) Report() *SearchReport {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.end
	if p.running > 0 {
		end = time.Now()
	}
	var dur float64
	if !end.IsZero() {
		dur = p.atLocked(end)
	}
	totals := p.snapshotLocked()
	totals.Running = 0 // the report records effort, not liveness

	rep := &SearchReport{
		DurationMS:    dur,
		SampleStride:  max(p.stride, 1),
		Samples:       append([]SearchSample(nil), p.samples...),
		Events:        append([]SearchEvent(nil), p.events...),
		EventsDropped: p.eventsDropped,
		Totals:        totals,
	}

	for i, n := range p.depth {
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
	for i, n := range p.lbd {
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

	for _, ce := range p.configs {
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
