package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func firstQueries(t *testing.T, wl *workload, seed uint64, n int) []byte {
	t.Helper()
	s := newStream(wl, seed)
	qs := make([]query, n)
	for i := range qs {
		qs[i], _ = s.next()
	}
	data, err := json.Marshal(qs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSeedFixesTheRequestStream(t *testing.T) {
	for _, wl := range workloads {
		a, b := firstQueries(t, wl, 7, 500), firstQueries(t, wl, 7, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request lists", wl.name)
		}
		if bytes.Equal(a, firstQueries(t, wl, 8, 500)) {
			t.Errorf("%s: seeds 7 and 8 produced the same request list", wl.name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 over 99 samples was accepted")
	}
	if p, err := percentile(xs, 0.9); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 over 19 samples was accepted")
	}
	if p, err := percentile(xs[:20], 0.5); err != nil || p != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", p, err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},  // grandchild of request
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"request": 40, "a": 25, "b": 30, "c": 30, "d": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		defs []metricDef
		decl []struct{ Name, Unit string }
	}{{endToEnd, decl.EndToEnd}, {perLayer, decl.PerLayer}} {
		var out bytes.Buffer
		if err := (&report{defs: c.defs}).print(&out); err != nil {
			t.Fatal(err)
		}
		printed := make(map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				printed[f[0]] = f[2]
			}
		}
		if len(printed) != len(c.decl) {
			t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(printed), len(c.decl))
		}
		for _, d := range c.decl {
			if !names.MatchString(d.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
			}
			if unit, ok := printed[d.Name]; !ok || unit != d.Unit {
				t.Errorf("metric %s: printed unit %q, declared %q", d.Name, unit, d.Unit)
			}
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the registry has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestTinyRunsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		m, err := measure(wl, options{seed: 3, window: time.Minute, maxQueries: 8, workdir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if len(m.win.latMS) != 8 {
			t.Errorf("%s: measured %d requests, want 8", wl.name, len(m.win.latMS))
		}
		var errs []string
		for _, w := range []window{m.warm, m.win} {
			errs = append(append(errs, w.failures...), w.wrong...)
		}
		for _, e := range append(errs, m.replayErrs...) {
			t.Errorf("%s: %s", wl.name, e)
		}
	}
}

func TestTracedPathMatchesTheTable(t *testing.T) {
	tr := &tracer{rec: newRecorder()}
	var c layerCounts
	for i, q := range []query{
		oneShot("shaper", "verify", "list", map[string]int64{"RATE": 1, "BURST": 1}, 1), // static tier
		oneShot("rr", "witness", "count", n2, 6),
		oneShot("fq-buggy", "witness", "list", n3, 3),
		oneShot("fq-buggy", "verify", "count", n2, 3),
	} {
		o := tr.do(int64(i), &q)
		c.add(o.work)
		if o.failed != "" || o.wrong != "" {
			t.Errorf("%s: %s%s", q.describe(), o.failed, o.wrong)
		}
		if o.trace != nil {
			if err := replayTrace(&q, o.status, o.traceT, o.trace); err != nil {
				t.Error(err)
			}
		}
	}
	if c.staticAnswers != 1 || c.traces != 2 {
		t.Errorf("static answers %d, traces %d; want 1 and 2", c.staticAnswers, c.traces)
	}
}
