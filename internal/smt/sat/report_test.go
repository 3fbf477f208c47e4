package sat

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRecorderThroughSolve drives the recorder the way the service
// does — attached to a Progress that a real SolveLimited publishes into
// — and checks the report carries a timeline, restart marks, both
// distributions, and totals that match the solver's own stats.
func TestRecorderThroughSolve(t *testing.T) {
	s := New()
	s.opts.Name = "unit-cfg"
	loadHardRandom3SAT(s, 300, 1278, 0x2545f4914f6cdd1d)
	rec := &Progress{}

	if got := s.SolveLimited(Limits{MaxConflicts: 3000, Progress: rec}); got != Unknown {
		t.Fatalf("status = %v, want Unknown (budget)", got)
	}

	rep := rec.Report()
	if rep == nil {
		t.Fatal("nil report from a live recorder")
	}
	if len(rep.Samples) < 2 {
		t.Fatalf("timeline has %d samples, want >= 2 (3000 conflicts crosses the publish cadence many times)", len(rep.Samples))
	}
	if rep.Totals.Conflicts != s.Stats().Conflicts {
		t.Errorf("report conflicts %d != solver stats %d", rep.Totals.Conflicts, s.Stats().Conflicts)
	}
	if rep.Totals.Solves != 1 {
		t.Errorf("solves = %d, want 1", rep.Totals.Solves)
	}
	kinds := map[string]int{}
	for _, e := range rep.Events {
		kinds[e.Kind]++
	}
	if kinds["solve_start"] != 1 || kinds["solve_end"] != 1 {
		t.Errorf("solve boundary events = %v, want one of each", kinds)
	}
	if kinds["restart"] == 0 {
		t.Errorf("no restart marks after %d restarts", s.Stats().Restarts)
	}
	if rep.Depth.Count == 0 {
		t.Error("decision-depth distribution is empty")
	}
	if rep.LBD.Count == 0 {
		t.Error("LBD distribution is empty")
	}
	if int64(kinds["restart"]) != s.Stats().Restarts {
		t.Errorf("restart marks %d != solver restarts %d", kinds["restart"], s.Stats().Restarts)
	}
	if len(rep.Configs) != 1 || rep.Configs[0].Name != "unit-cfg" {
		t.Errorf("configs = %+v, want the single named config", rep.Configs)
	}
	// The clock runs from solve_start to solve_end: nothing before the
	// search is billed to it.
	if first := rep.Events[0]; first.Kind != "solve_start" || first.AtMS != 0 {
		t.Errorf("first event = %+v, want solve_start at 0ms", first)
	}
	if last := rep.Events[len(rep.Events)-1]; last.Kind != "solve_end" || rep.DurationMS != last.AtMS {
		t.Errorf("duration %vms, last event %+v: want the solve_end mark's at_ms", rep.DurationMS, last)
	}
	// Samples are monotone in time and cumulative counters.
	for i := 1; i < len(rep.Samples); i++ {
		if rep.Samples[i].Conflicts < rep.Samples[i-1].Conflicts {
			t.Fatalf("sample %d: conflicts went backwards", i)
		}
		if rep.Samples[i].AtMS < rep.Samples[i-1].AtMS {
			t.Fatalf("sample %d: time went backwards", i)
		}
	}
}

// TestRecorderDecimation fills the timeline past its bound and checks
// the shape-preserving coarsening: never above maxSamples, stride
// doubling, first sample retained.
func TestRecorderDecimation(t *testing.T) {
	rec := &Progress{}
	const pubs = maxSamples*4 + 37
	for i := 0; i < pubs; i++ {
		rec.observe("", Stats{Conflicts: 1}, 0, i%40, nil)
	}
	rec.mu.Lock()
	n, stride := len(rec.samples), rec.stride
	first := rec.samples[0]
	rec.mu.Unlock()
	if n > maxSamples {
		t.Fatalf("timeline grew to %d, bound is %d", n, maxSamples)
	}
	if stride < 4 {
		t.Errorf("stride = %d after 4x overflow, want >= 4", stride)
	}
	if first.Conflicts != 1 {
		t.Errorf("decimation lost the first sample (conflicts=%d)", first.Conflicts)
	}
	rep := rec.Report()
	if rep.Totals.Conflicts != pubs {
		t.Errorf("totals lost effort under decimation: %d, want %d", rep.Totals.Conflicts, pubs)
	}
	if rep.SampleStride != stride {
		t.Errorf("report stride %d != recorder stride %d", rep.SampleStride, stride)
	}
}

// TestRecorderEventCap: overflow marks are counted, not kept.
func TestRecorderEventCap(t *testing.T) {
	rec := &Progress{}
	for i := 0; i < maxEvents+25; i++ {
		rec.event("restart", "", int64(i), 0)
	}
	rep := rec.Report()
	if len(rep.Events) != maxEvents {
		t.Errorf("kept %d events, bound is %d", len(rep.Events), maxEvents)
	}
	if rep.EventsDropped != 25 {
		t.Errorf("dropped = %d, want 25", rep.EventsDropped)
	}
}

// TestRecorderConfigAttribution: effort lands on the config that
// published it, and solve_start counts per-config solves.
func TestRecorderConfigAttribution(t *testing.T) {
	rec := &Progress{}
	rec.event("solve_start", "geom", 0, 0)
	rec.event("solve_start", "luby", 0, 0)
	rec.observe("geom", Stats{Conflicts: 100}, 0, 3, nil)
	rec.observe("luby", Stats{Conflicts: 40}, 0, 5, nil)
	rep := rec.Report()
	if len(rep.Configs) != 2 {
		t.Fatalf("configs = %+v, want 2", rep.Configs)
	}
	// Sorted by conflicts descending.
	if rep.Configs[0].Name != "geom" || rep.Configs[0].Conflicts != 100 || rep.Configs[0].Solves != 1 {
		t.Errorf("config[0] = %+v, want geom/100/1", rep.Configs[0])
	}
	if rep.Totals.Conflicts != 140 || rep.Totals.Solves != 2 {
		t.Errorf("totals = %+v, want 140 conflicts over 2 solves", rep.Totals)
	}
}

// TestReportSetWinner: SetWinner stamps the report and the winning
// config's entry, and Render marks exactly the stamped entries.
func TestReportSetWinner(t *testing.T) {
	rec := &Progress{}
	rec.event("solve_start", "geom", 0, 0)
	rec.event("solve_start", "luby", 0, 0)
	rec.observe("geom", Stats{Conflicts: 100}, 0, 3, nil)
	rec.observe("luby", Stats{Conflicts: 40}, 0, 5, nil)
	rep := rec.Report()
	rep.SetWinner("luby")
	if rep.Winner != "luby" {
		t.Errorf("Winner = %q, want luby", rep.Winner)
	}
	for _, c := range rep.Configs {
		if c.Winner != (c.Name == "luby") {
			t.Errorf("config %s: Winner = %v", c.Name, c.Winner)
		}
	}
	out := rep.Render()
	marked := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && (f[0] == "geom" || f[0] == "luby") {
			marked[f[0]] = f[1] == "*"
		}
	}
	if !marked["luby"] || marked["geom"] || !strings.Contains(out, "winner: luby") {
		t.Errorf("render does not mark exactly luby as the winner:\n%s", out)
	}

	// Outside a race there is no winner, not even the unnamed config.
	single := &Progress{}
	single.event("solve_start", "", 0, 0)
	single.observe("", Stats{Conflicts: 7}, 0, 1, nil)
	rep = single.Report()
	rep.SetWinner("")
	if rep.Winner != "" || len(rep.Configs) != 1 || rep.Configs[0].Winner {
		t.Errorf("SetWinner(\"\") stamped %+v", rep)
	}
}

// TestReportJSONRoundTrip: the report rides the durable result store,
// so a decode of its encode must be lossless.
func TestReportJSONRoundTrip(t *testing.T) {
	rec := &Progress{}
	rec.event("solve_start", "cfg", 0, 0)
	d := Stats{Conflicts: 64, Learnt: 10, LearntBytes: 640}
	rec.observe("cfg", d, 0.25, 7, nil)
	rec.event("restart", "cfg", 64, 128)
	rep := rec.Report()
	rep.SetWinner("cfg")

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back SearchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("report does not JSON round-trip:\n first: %s\nsecond: %s", data, again)
	}
}

// TestReportRender smoke-tests the terminal rendering on a real solve:
// the sparkline timeline, event counts and histograms must all appear.
func TestReportRender(t *testing.T) {
	s := New()
	loadHardRandom3SAT(s, 300, 1278, 0xdeadbeef12345)
	rec := &Progress{}
	s.SolveLimited(Limits{MaxConflicts: 3000, Progress: rec})

	out := rec.Report().Render()
	for _, want := range []string{"search:", "timeline", "events:", "decision depth", "LBD"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var nilRep *SearchReport
	if nilRep.Render() != "" {
		t.Error("nil report renders non-empty")
	}
}

// TestRecorderNilSafe: readers poll through nil-guards; a nil Progress
// must be free.
func TestRecorderNilSafe(t *testing.T) {
	var rec *Progress
	if rec.Report() != nil {
		t.Error("nil recorder produced a report")
	}
}
