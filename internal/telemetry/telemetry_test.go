package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTrace("t1")
	ctx := WithTrace(context.Background(), tr)

	ctx2, root := StartSpan(ctx, "job")
	ctx3, enc := StartSpan(ctx2, "encode")
	_, bb := StartSpan(ctx3, "bitblast")
	bb.SetAttrs(Int("clauses", 42))
	bb.End()
	enc.End()
	_, search := StartSpan(ctx2, "search")
	search.End()
	root.End()

	v := tr.Snapshot()
	if v.ID != "t1" || v.NumSpans != 4 {
		t.Fatalf("snapshot: %+v", v)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != "job" {
		t.Fatalf("want one root span 'job', got %+v", v.Spans)
	}
	job := v.Spans[0]
	if len(job.Spans) != 2 || job.Spans[0].Name != "encode" || job.Spans[1].Name != "search" {
		t.Fatalf("job children: %+v", job.Spans)
	}
	if len(job.Spans[0].Spans) != 1 || job.Spans[0].Spans[0].Name != "bitblast" {
		t.Fatalf("encode children: %+v", job.Spans[0].Spans)
	}
	if got := job.Spans[0].Spans[0].Attrs["clauses"]; got != int64(42) {
		t.Errorf("bitblast attrs: %v", job.Spans[0].Spans[0].Attrs)
	}
	for _, s := range []*SpanView{job, job.Spans[0], job.Spans[1]} {
		if !s.Ended {
			t.Errorf("span %s not marked ended", s.Name)
		}
	}
	if !strings.Contains(v.Render(), "bitblast") {
		t.Errorf("render missing span:\n%s", v.Render())
	}
}

// TestNilSafety pins the zero-cost-when-disabled contract: every
// operation on a nil trace/span (including children of dropped spans)
// must be a silent no-op.
func TestNilSafety(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x") // no trace attached
	if sp != nil {
		t.Fatal("StartSpan without a trace must return a nil span")
	}
	sp.SetAttrs(String("k", "v"))
	sp.End()
	sp.Child("y").End()
	var tr *Trace
	if tr.StartSpan(nil, "z") != nil {
		t.Fatal("nil trace must produce nil spans")
	}
	tr.Snapshot()
	tr.Durations()
	if FromContext(ctx) != nil || SpanFromContext(ctx) != nil {
		t.Fatal("empty context must carry no trace/span")
	}
}

// TestBoundedSpans pins the memory bound: past max, StartSpan drops (and
// counts) instead of growing.
func TestBoundedSpans(t *testing.T) {
	tr := NewTraceN("b", 3)
	for i := 0; i < 10; i++ {
		tr.StartSpan(nil, "s").End()
	}
	v := tr.Snapshot()
	if v.NumSpans != 3 || v.Dropped != 7 {
		t.Fatalf("bound not enforced: spans=%d dropped=%d", v.NumSpans, v.Dropped)
	}
	// A context StartSpan on a full trace keeps the previous current span.
	ctx := WithTrace(context.Background(), tr)
	ctx2, sp := StartSpan(ctx, "over")
	if sp != nil || SpanFromContext(ctx2) != nil {
		t.Fatal("span on a full trace must be nil")
	}
}

// TestConcurrentSpans exercises the portfolio pattern: N goroutines
// recording spans into one trace while another goroutine snapshots it.
// Run under -race in CI.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTraceN("c", 4096)
	root := tr.StartSpan(nil, "race")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
				tr.Durations()
				tr.Work()
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := root.Child("config")
				sp.SetAttrs(Int("i", int64(i)))
				sp.End()
				sp.SetAttrs(Count("n", 1)) // annotated after End, as portfolio winners are
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	root.End()
	if d := tr.Durations()["config"]; d < 0 {
		t.Fatalf("negative aggregate duration %v", d)
	}
	if n := tr.Snapshot().NumSpans; n != 801 {
		t.Fatalf("span count %d, want 801", n)
	}
	if n := tr.Work()["config.n"]; n != 800 {
		t.Fatalf("work config.n = %d, want 800", n)
	}
}

func TestDurations(t *testing.T) {
	tr := NewTrace("d")
	a := tr.StartSpan(nil, "stage")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := tr.StartSpan(nil, "stage")
	time.Sleep(2 * time.Millisecond)
	b.End()
	tr.StartSpan(nil, "open") // never ended: excluded
	d := tr.Durations()
	if d["stage"] < 4*time.Millisecond {
		t.Errorf("stage duration %v, want >= 4ms", d["stage"])
	}
	if _, ok := d["open"]; ok {
		t.Error("unended span must not contribute a duration")
	}
}

// TestWork: Work sums Count attributes over ended spans, keyed
// span.counter; plain Int labels and in-flight spans never count, and a
// counter still reads as an int64 in the snapshot.
func TestWork(t *testing.T) {
	tr := NewTrace("w")
	for _, n := range []int64{3, 4} {
		s := tr.StartSpan(nil, "search")
		s.SetAttrs(Count("conflicts", n), Int("t", n))
		s.End()
	}
	tr.StartSpan(nil, "search").SetAttrs(Count("conflicts", 100)) // never ended
	w := tr.Work()
	if len(w) != 1 || w["search.conflicts"] != 7 {
		t.Errorf("Work() = %v, want map[search.conflicts:7]", w)
	}
	if c, ok := tr.Snapshot().Spans[0].Attrs["conflicts"].(int64); !ok || c != 3 {
		t.Errorf("snapshot conflicts = %v, want int64 3", tr.Snapshot().Spans[0].Attrs["conflicts"])
	}
	var nilTrace *Trace
	if len(nilTrace.Work()) != 0 {
		t.Error("a nil trace has no work")
	}
}
