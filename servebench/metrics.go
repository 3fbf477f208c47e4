package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"buffy/internal/service"
)

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, each declared with its bound in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "verdicts/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. Pipeline times and work counters
// are per request; service, session and store counters are totals over
// the untraced half of the traced run. A layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"parse.self_ms", "ms"},
	{"parse.ast_nodes", "count"},
	{"vet.self_ms", "ms"},
	{"vet.static_answers", "count"},
	{"compile.self_ms", "ms"},
	{"compile.terms", "count"},
	{"bitblast.self_ms", "ms"},
	{"bitblast.vars", "count"},
	{"bitblast.clauses", "count"},
	{"search.self_ms", "ms"},
	{"search.conflicts", "count"},
	{"search.decisions", "count"},
	{"search.propagations", "count"},
	{"search.learnt", "count"},
	{"search.restarts", "count"},
	{"search.learnt_bytes", "bytes"},
	{"decode.self_ms", "ms"},
	{"decode.traces", "count"},
	{"session.hits", "count"},
	{"session.misses", "count"},
	{"session.hit_ratio", "ratio"},
	{"session.evictions", "count"},
	{"session.bytes_peak", "bytes"},
	{"session.build_p50_ms", "ms"},
	{"session.reuse_p50_ms", "ms"},
	{"session.horizon_p50_us", "us"},
	{"session.horizons", "count"},
	{"service.mem_hits", "count"},
	{"service.disk_hits", "count"},
	{"service.misses", "count"},
	{"service.mem_hit_p50_us", "us"},
	{"service.disk_hit_p50_us", "us"},
	{"service.miss_p50_ms", "ms"},
	{"service.submit_hit_p50_us", "us"},
	{"http.hit_overhead_p50_us", "us"},
	{"service.response_bytes_p50", "bytes"},
	{"service.hit_time_share", "ratio"},
	{"store.recovery_ms", "ms"},
	{"store.entries", "count"},
	{"store.bytes", "bytes"},
	{"store.writes", "count"},
	{"store.write_drops", "count"},
	{"store.quarantined", "count"},
	{"netcalc.bound_p50_us", "us"},
	{"vet.http_p50_us", "us"},
	{"trace_overhead_ratio", "ratio"},
}

// report is one run's result.
type report struct {
	attempted, failed int
	failures          []string // the first few failure messages
	wrong             []string
	defs              []metricDef
	values            map[string]float64
	notes             []string // extra human-readable lines
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric as "name value unit", the notes, and the
// result object as the last line.
func (r *report) print(w io.Writer) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.wrong) == 0, r.attempted, r.failed, make(map[string]jsonMetric)}
	for _, d := range r.defs {
		v := r.values[d.name]
		out.Metrics[d.name] = jsonMetric{v, d.unit}
		fmt.Fprintf(w, "%s %v %s\n", d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// endToEndValues computes the untraced run's metrics. A failed request
// counts as infinitely slow in the latency percentiles.
func endToEndValues(setup []time.Duration, w window, elapsed, cpu time.Duration) (map[string]float64, error) {
	n := len(w.latMS)
	if n == 0 {
		return nil, fmt.Errorf("no request completed in the window")
	}
	p50, err := percentile(w.latMS, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(w.latMS, 0.9)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":          median(seconds(setup)),
		"throughput_qps":   float64(n-w.failed) / elapsed.Seconds(),
		"latency_p50_ms":   p50,
		"latency_p90_ms":   p90,
		"cpu_ms_per_query": ms(cpu) / float64(n),
		"peak_rss_mb":      rss,
	}, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tracedRun is what a traced run measured: the untraced half (u) feeds the
// service-layer metrics, the traced half (t) the pipeline layers.
type tracedRun struct {
	wl          *workload
	storeOpen   []time.Duration
	outsU       []outcome
	elapsedU    time.Duration
	mU0, mU1    service.Snapshot
	sessionPeak int64
	outsT       []outcome
	elapsedT    time.Duration
	mT0, mT1    service.Snapshot
	tracer      *tracer
	submitHitUS []float64
}

func (tr *tracedRun) values() map[string]float64 {
	v := make(map[string]float64)
	tr.pipeline(v)
	tr.service(v)
	v["trace_overhead_ratio"] = tr.elapsedT.Seconds() / tr.elapsedU.Seconds()
	return v
}

// pipeline fills the per-request layer metrics of the traced half: from
// the benchmark's own spans on direct workloads, and from the engine's
// stage histograms and the responses on HTTP workloads.
func (tr *tracedRun) pipeline(v map[string]float64) {
	n := float64(max(len(tr.outsT), 1))
	var c layerCounts
	for _, o := range tr.outsT {
		c.add(o.work)
	}
	if tr.wl.direct {
		self := selfTimes(tr.tracer.rec.snapshot())
		for _, l := range layers {
			v[l+".self_ms"] = ms(self[l]) / n
		}
	} else {
		for _, l := range layers {
			v[l+".self_ms"] = (tr.mT1.StageSecondsSum[l] - tr.mT0.StageSecondsSum[l]) * 1e3 / n
		}
		c.staticAnswers = tr.mT1.StaticAnswered - tr.mT0.StaticAnswered
	}
	for name, x := range map[string]int64{
		"parse.ast_nodes": c.astNodes, "vet.static_answers": c.staticAnswers,
		"compile.terms": c.terms, "bitblast.vars": c.vars, "bitblast.clauses": c.clauses,
		"search.conflicts": c.conflicts, "search.decisions": c.decisions,
		"search.propagations": c.propagations, "search.learnt": c.learnt,
		"search.restarts": c.restarts, "search.learnt_bytes": c.learntMem,
		"decode.traces": c.traces,
	} {
		v[name] = float64(x) / n
	}
}

// service fills the session, cache-tier, store, bound and vet metrics
// from the untraced half, which sends every workload's requests over HTTP.
func (tr *tracedRun) service(v map[string]float64) {
	var build, reuse, horizons, mem, disk, miss, bounds, vets, hitBytes []float64
	var sweeps, nHorizons int
	var hitTime, allTime time.Duration
	for _, o := range tr.outsU {
		allTime += o.latency
		if o.failed != "" {
			continue
		}
		switch {
		case o.path == "/v1/vet":
			vets = append(vets, us(o.latency))
			continue
		case o.path == "/v1/bound":
			bounds = append(bounds, us(o.latency))
		case o.path == "/v1/sweep":
			sweeps++
			nHorizons += len(o.horizonsUS)
			horizons = append(horizons, o.horizonsUS...)
			if o.sessionHit {
				reuse = append(reuse, ms(o.latency))
			} else {
				build = append(build, ms(o.latency))
			}
		}
		switch {
		case o.tier == service.CacheTierMemory:
			mem = append(mem, us(o.latency))
		case o.tier == service.CacheTierDisk:
			disk = append(disk, us(o.latency))
		default:
			miss = append(miss, ms(o.latency))
		}
		if o.tier != "" {
			hitTime += o.latency
			hitBytes = append(hitBytes, float64(o.bytes))
		}
	}
	hits := tr.mU1.SessionHits - tr.mU0.SessionHits
	misses := tr.mU1.SessionMisses - tr.mU0.SessionMisses
	v["session.hits"] = float64(hits)
	v["session.misses"] = float64(misses)
	if hits+misses > 0 {
		v["session.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["session.evictions"] = float64(sum(tr.mU1.SessionEvictions) - sum(tr.mU0.SessionEvictions))
	v["session.bytes_peak"] = float64(tr.sessionPeak)
	v["session.build_p50_ms"] = median(build)
	v["session.reuse_p50_ms"] = median(reuse)
	v["session.horizon_p50_us"] = median(horizons)
	if sweeps > 0 {
		v["session.horizons"] = float64(nHorizons) / float64(sweeps)
	}
	v["service.mem_hits"] = float64(len(mem))
	v["service.disk_hits"] = float64(len(disk))
	v["service.misses"] = float64(len(miss))
	v["service.mem_hit_p50_us"] = median(mem)
	v["service.disk_hit_p50_us"] = median(disk)
	v["service.miss_p50_ms"] = median(miss)
	v["service.submit_hit_p50_us"] = median(tr.submitHitUS)
	if len(mem) > 0 && len(tr.submitHitUS) > 0 {
		v["http.hit_overhead_p50_us"] = median(mem) - median(tr.submitHitUS)
	}
	v["service.response_bytes_p50"] = median(hitBytes)
	if allTime > 0 {
		v["service.hit_time_share"] = hitTime.Seconds() / allTime.Seconds()
	}
	v["store.recovery_ms"] = median(seconds(tr.storeOpen)) * 1e3
	if s0, s1 := tr.mU0.Store, tr.mU1.Store; s0 != nil && s1 != nil {
		v["store.entries"] = float64(s1.Entries)
		v["store.bytes"] = float64(s1.Bytes)
		v["store.writes"] = float64(s1.Writes - s0.Writes)
		v["store.write_drops"] = float64(s1.Dropped - s0.Dropped)
		v["store.quarantined"] = float64(s1.Quarantined)
	}
	v["netcalc.bound_p50_us"] = median(bounds)
	v["vet.http_p50_us"] = median(vets)
}

func sum(m map[string]int64) int64 {
	var s int64
	for _, x := range m {
		s += x
	}
	return s
}

// shares renders each pipeline layer's part of the summed self time.
func shares(v map[string]float64) string {
	total := 0.0
	for _, l := range layers {
		total += v[l+".self_ms"]
	}
	line := "self-time shares:"
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = v[l+".self_ms"] / total
		}
		line += fmt.Sprintf(" %s=%.1f%%", l, 100*share)
	}
	return line
}
