// Package telemetry is a dependency-free span tracer for the analysis
// pipeline. A Trace is a bounded collection of spans — named, timed
// regions with typed attributes, linked parent→child — threaded through
// the stack via context.Context. Every layer of the pipeline (parse, IR
// compile, bit-blast, CDCL search, fperf iterations, portfolio configs)
// opens a span around its work, so a slow analysis decomposes into a
// per-stage cost breakdown instead of one opaque wall-clock number.
//
// The design constraints, in order:
//
//   - Zero cost when disabled: every operation is nil-safe, so code can
//     instrument unconditionally (`_, sp := telemetry.StartSpan(ctx, ...)`;
//     `defer sp.End()`) and pay only a context lookup when no trace is
//     attached.
//   - Safe under concurrency: portfolio races record spans from N
//     goroutines into one trace; the trace serializes appends with a
//     mutex and each span guards its own mutable fields.
//   - Bounded: a trace holds at most its configured span count. Past the
//     limit new spans are dropped (counted, not silently lost) so a
//     pathological search with tens of thousands of restarts cannot
//     balloon a request's memory.
package telemetry

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultMaxSpans bounds a trace's span count when NewTrace is used.
const DefaultMaxSpans = 512

// Trace is one analysis run's collection of spans. Create with NewTrace,
// attach to a context with WithTrace, and read back with Snapshot. All
// methods are safe for concurrent use and nil-safe.
type Trace struct {
	id    string
	start time.Time
	max   int

	mu      sync.Mutex
	spans   []*Span
	nextID  uint64
	dropped int
}

// NewTrace returns an empty trace bounded at DefaultMaxSpans spans.
func NewTrace(id string) *Trace { return NewTraceN(id, DefaultMaxSpans) }

// NewTraceN returns an empty trace holding at most max spans (max <= 0
// falls back to DefaultMaxSpans).
func NewTraceN(id string, max int) *Trace {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Trace{id: id, start: time.Now(), max: max}
}

// ID returns the trace's identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a span under parent (nil parent = a root span). It
// returns nil — a valid no-op span — when the trace is nil or full.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.nextID++
	s := &Span{tr: t, id: t.nextID, name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one named, timed region of a trace. A nil *Span is a valid
// no-op: every method checks the receiver, so instrumentation sites never
// need to guard on whether tracing is enabled.
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	dur   time.Duration
	ended bool
	attrs []Attr
}

// Child opens a sub-span of s. On a nil receiver it returns nil (still a
// valid no-op span), so call chains degrade gracefully.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.StartSpan(s, name)
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Attr is one typed span attribute.
type Attr struct {
	Key   string
	Value any
	count bool // a work counter: Trace.Work sums it
}

// String / Int / Bool build typed attributes.
func String(k, v string) Attr    { return Attr{Key: k, Value: v} }
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Count builds a work counter: an int64 attribute, like Int, that
// Trace.Work sums across spans. A layer records its work (terms built,
// clauses emitted, conflicts) with Count; labels such as a horizon or an
// attempt number stay Int and are never summed.
func Count(k string, v int64) Attr { return Attr{Key: k, Value: v, count: true} }

// SetAttrs appends attributes to the span. Setting attributes on an
// already-ended span is allowed (the portfolio annotates the winner after
// the race settles).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// --- context plumbing ---

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches a trace to the context. Spans subsequently started
// through StartSpan on that context are recorded into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace (nil when none is attached).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanFromContext returns the context's current span (nil when none).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span (a
// root span when there is none) and returns a derived context carrying
// the new span as current. With no trace attached it returns (ctx, nil) —
// the nil span is a valid no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	s := t.StartSpan(SpanFromContext(ctx), name)
	if s == nil {
		return ctx, nil // trace full: drop, keep the previous current span
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// --- snapshots ---

// SpanView is a span's immutable wire representation. Children are
// nested, in start order.
type SpanView struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // offset from trace start
	DurUS   int64          `json:"duration_us"`
	Ended   bool           `json:"ended"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Spans   []*SpanView    `json:"spans,omitempty"`
}

// View is a whole trace's wire representation: the span tree plus
// bookkeeping.
type View struct {
	ID        string      `json:"id"`
	StartedAt time.Time   `json:"started_at"`
	NumSpans  int         `json:"num_spans"`
	Dropped   int         `json:"dropped_spans,omitempty"`
	Spans     []*SpanView `json:"spans"`
}

// Snapshot renders the trace's current state as a span tree. In-flight
// spans appear with Ended=false and their duration so far. Safe to call
// while spans are still being recorded (the live-trace endpoint does).
func (t *Trace) Snapshot() View {
	if t == nil {
		return View{}
	}
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	v := View{ID: t.id, StartedAt: t.start, NumSpans: len(spans), Dropped: t.dropped}
	t.mu.Unlock()

	views := make(map[uint64]*SpanView, len(spans))
	for _, s := range spans {
		s.mu.Lock()
		sv := &SpanView{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartUS: s.start.Sub(t.start).Microseconds(),
			Ended:   s.ended,
		}
		if s.ended {
			sv.DurUS = s.dur.Microseconds()
		} else {
			sv.DurUS = time.Since(s.start).Microseconds()
		}
		if len(s.attrs) > 0 {
			sv.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				sv.Attrs[a.Key] = a.Value
			}
		}
		s.mu.Unlock()
		views[sv.ID] = sv
	}
	// Spans were appended in start order, so children always follow their
	// parent and one pass builds the tree.
	for _, s := range spans {
		sv := views[s.id]
		if p, ok := views[sv.Parent]; ok && sv.Parent != 0 {
			p.Spans = append(p.Spans, sv)
		} else {
			v.Spans = append(v.Spans, sv)
		}
	}
	return v
}

// Durations sums the duration of every *ended* span by name. Callers use
// it to derive per-stage cost breakdowns (stage histograms, the -exp
// stages report); in-flight spans are excluded so sums are stable.
func (t *Trace) Durations() map[string]time.Duration {
	out := make(map[string]time.Duration)
	t.eachEnded(func(s *Span) { out[s.name] += s.dur })
	return out
}

// Work sums the Count attributes of every *ended* span, keyed
// "span.counter" (compile.terms, search.conflicts). It is the one reader
// of layer work counters: the benchmark trajectory and the service's
// /metrics both fold a trace through it.
func (t *Trace) Work() map[string]int64 {
	out := make(map[string]int64)
	t.eachEnded(func(s *Span) {
		for _, a := range s.attrs {
			if a.count {
				out[s.name+"."+a.Key] += a.Value.(int64)
			}
		}
	})
	return out
}

// eachEnded calls f on every ended span, under that span's lock.
func (t *Trace) eachEnded(f func(*Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	for _, s := range spans {
		s.mu.Lock()
		if s.ended {
			f(s)
		}
		s.mu.Unlock()
	}
}

// Render pretty-prints the span tree with durations and attributes, for
// CLI output (buffyc -trace).
func (v View) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans", v.ID, v.NumSpans)
	if v.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", v.Dropped)
	}
	b.WriteString(")\n")
	var walk func(spans []*SpanView, depth int)
	walk = func(spans []*SpanView, depth int) {
		for _, s := range spans {
			fmt.Fprintf(&b, "%s%-*s %9.3fms", strings.Repeat("  ", depth+1), 24-2*depth, s.Name,
				float64(s.DurUS)/1e3)
			if len(s.Attrs) > 0 {
				keys := make([]string, 0, len(s.Attrs))
				for k := range s.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, " %s=%v", k, s.Attrs[k])
				}
			}
			if !s.Ended {
				b.WriteString(" (running)")
			}
			b.WriteString("\n")
			walk(s.Spans, depth+1)
		}
	}
	walk(v.Spans, 0)
	return b.String()
}
