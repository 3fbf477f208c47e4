// Command servebench is the repository's benchmark. One process runs one
// workload: it serves service.NewHandler on a 127.0.0.1 listener over an
// engine with two solver workers, and two closed-loop HTTP clients send a
// request stream generated from the seed. Every answer is checked against
// a hand-written expected-verdict table, and every witness or
// counterexample trace is replayed on the concrete interpreter; a wrong
// answer makes the run exit 1.
//
//	bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds this module into .bench_build/ and runs it from the
// repository root. Workloads: compile-bound, search-bound, sweep-session
// and service-replay (see workloads.go for what each loads and why).
//
// --trace 0 brings the system up setupReps times (setup_s is the median),
// sends an untimed warm-up, measures whole request blocks until S seconds
// have passed (at least 100 requests) and prints the end-to-end metrics. --trace 1 measures S/2 seconds untraced,
// rounded up to whole request blocks, then the same number
// of request blocks traced: the one-shot solver workloads call each
// layer's entry point directly (parse, vet, compile, bitblast, search,
// decode) inside spans recorded by this program; the others go over HTTP
// with a span per request, and their layer times come from the engine's
// stage histograms. It prints the per-layer metrics, each layer's share of
// the summed self time and the traced/untraced wall ratio, and writes the
// spans to --spans. Every metric prints as "name value unit"; the last
// line is a JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"buffy/internal/service"
)

// setupReps is how many times a run brings the system up; setup_s is the
// median bring-up time, which a sub-millisecond bring-up needs many
// samples to steady.
const setupReps = 31

// minWindowQueries keeps the window open until p90 has ten samples beyond
// it, should the machine be too slow to finish them in --seconds.
const minWindowQueries = 100

// prepopulateBatch stays below the engine's 256-slot write-behind queue,
// so answering a batch can never drop a store write.
const prepopulateBatch = 200

type options struct {
	seed       uint64
	window     time.Duration
	maxQueries int // end the window after this many requests (0: no limit)
	workdir    string
}

func main() {
	name := flag.String("workload", "", "workload: compile-bound | search-bound | sweep-session | service-replay")
	seed := flag.Uint64("seed", 1, "seed of the generated request stream")
	secs := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
	spans := flag.String("spans", "", "span file of a traced run (default .bench_build/spans/WORKLOAD-seedN.json)")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err == nil && (*secs < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	o := options{seed: *seed, window: time.Duration(*secs) * time.Second, workdir: filepath.Join(".bench_build", "tmp")}
	var r *report
	if *trace == 1 {
		if *spans == "" {
			*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", wl.name, o.seed))
		}
		r, err = runTraced(wl, o, *spans)
	} else {
		r, err = runUntraced(wl, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "servebench: failed request:", f)
	}
	for _, w := range r.wrong {
		fmt.Fprintln(os.Stderr, "servebench: wrong answer:", w)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if len(r.wrong) > 0 {
		os.Exit(1)
	}
}

// setUp answers the workload's stored queries into a fresh store, untimed,
// then brings the system up setupReps times, timing each bring-up, and
// keeps the last instance running. dir is the store directory to remove
// ("" without a store).
func setUp(wl *workload, o options) (v *env, setup, opens []time.Duration, dir string, err error) {
	if len(wl.stored) > 0 {
		if err = os.MkdirAll(o.workdir, 0o755); err != nil {
			return nil, nil, nil, "", err
		}
		if dir, err = os.MkdirTemp(o.workdir, wl.name+"-"); err != nil {
			return nil, nil, nil, "", err
		}
		if err = prepopulate(dir, wl.stored); err != nil {
			return nil, nil, nil, dir, err
		}
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each bring-up starts from a collected heap, as a new process would
		t0 := time.Now()
		if v, err = start(wl, dir); err != nil {
			return nil, nil, nil, dir, err
		}
		setup = append(setup, time.Since(t0))
		opens = append(opens, v.openTime)
		if i < setupReps-1 {
			if err = v.close(); err != nil {
				return nil, nil, nil, dir, err
			}
		}
	}
	if st := v.engine.Metrics().Store; st != nil && st.Entries != len(wl.stored) {
		err = fmt.Errorf("store holds %d entries after set-up, want %d", st.Entries, len(wl.stored))
		return nil, nil, nil, dir, errors.Join(err, v.close())
	}
	return v, setup, opens, dir, nil
}

// prepopulate answers qs through engines writing behind to the store at
// dir, checking every answer against the table.
func prepopulate(dir string, qs []query) error {
	for len(qs) > 0 {
		batch := qs[:min(len(qs), prepopulateBatch)]
		qs = qs[len(batch):]
		st, err := openStore(dir)
		if err != nil {
			return err
		}
		e := service.New(service.Config{Workers: workers, Store: st})
		for _, q := range batch {
			res, err := submit(e, &q)
			if err == nil {
				if w := q.checkResult(res); w != "" {
					err = errors.New(w)
				}
			}
			if err != nil {
				return errors.Join(err, shutdownEngine(e))
			}
		}
		if err := shutdownEngine(e); err != nil {
			return err
		}
	}
	return nil
}

// submit runs one query on the engine directly, without HTTP.
func submit(e *service.Engine, q *query) (*service.Result, error) {
	req := q.Body
	req.Kind = service.Kind(strings.TrimPrefix(q.Path, "/v1/"))
	job, err := e.Submit(&req)
	if err != nil {
		return nil, err
	}
	<-job.Done()
	return job.Result()
}

// measurement is what an untraced run observed.
type measurement struct {
	setup        []time.Duration
	warm, win    window
	elapsed, cpu time.Duration
	replayErrs   []string
}

// measure runs the untraced measurement: set-up, warm-up, the window, and
// the replay of every trace seen.
func measure(wl *workload, o options) (*measurement, error) {
	v, setup, _, dir, err := setUp(wl, o)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	m := &measurement{setup: setup}
	col := newCollector(false)
	s := newStream(wl, o.seed)
	drive(&feed{s: s, maxQueries: wl.warmup}, v.do, col)
	m.warm = col.take()
	// The window is made of whole blocks, so every run measures the same
	// mix: a partial block would shift which query p90 lands on.
	s.pending = nil
	cpu0 := cpuTime()
	f := &feed{s: s, deadline: time.Now().Add(o.window), whole: true, minQueries: minWindowQueries, maxQueries: o.maxQueries}
	m.elapsed = drive(f, v.do, col)
	m.cpu = cpuTime() - cpu0
	m.win = col.take()
	if err := v.close(); err != nil {
		return nil, err
	}
	m.replayErrs = replayAll(col)
	return m, nil
}

func runUntraced(wl *workload, o options) (*report, error) {
	m, err := measure(wl, o)
	if err != nil {
		return nil, err
	}
	vals, err := endToEndValues(m.setup, m.win, m.elapsed, m.cpu)
	if err != nil {
		return nil, err
	}
	r := &report{defs: endToEnd, values: vals}
	r.tally(m.win)
	r.wrong = append(r.wrong, m.warm.wrong...)
	r.wrong = append(r.wrong, m.replayErrs...)
	return r, nil
}

// runTraced measures S/2 seconds of whole blocks untraced, then as many
// blocks traced, and reports the per-layer metrics.
func runTraced(wl *workload, o options, spansPath string) (*report, error) {
	v, _, opens, dir, err := setUp(wl, o)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	col := newCollector(true)
	s := newStream(wl, o.seed)
	drive(&feed{s: s, maxQueries: wl.warmup}, v.do, col)
	warm := col.take()
	s.pending = nil // both halves start on a block boundary

	tr := &tracedRun{wl: wl, storeOpen: opens, tracer: &tracer{rec: newRecorder()}}
	tr.mU0 = v.engine.Metrics()
	stop := sampleSessionPeak(v.engine, &tr.sessionPeak)
	fu := &feed{s: s, deadline: time.Now().Add(o.window / 2), whole: true}
	tr.elapsedU = drive(fu, v.do, col)
	stop()
	tr.mU1 = v.engine.Metrics()
	winU := col.take()
	tr.outsU = winU.outcomes

	do := tr.tracer.overHTTP(v)
	if wl.direct {
		do = tr.tracer.do
	}
	tr.mT0 = v.engine.Metrics()
	tr.elapsedT = drive(&feed{s: s, maxBlocks: fu.blocks}, do, col)
	tr.mT1 = v.engine.Metrics()
	winT := col.take()
	tr.outsT = winT.outcomes
	if len(wl.stored) > 0 {
		if tr.submitHitUS, err = probeSubmitHit(v.engine, &wl.stored[0]); err != nil {
			return nil, errors.Join(err, v.close())
		}
	}
	if err := v.close(); err != nil {
		return nil, err
	}
	if err := tr.tracer.rec.write(spansPath); err != nil {
		return nil, err
	}
	vals := tr.values()
	r := &report{defs: perLayer, values: vals, notes: []string{shares(vals)}}
	r.tally(winT)
	r.wrong = append(r.wrong, warm.wrong...)
	r.wrong = append(r.wrong, winU.wrong...)
	r.wrong = append(r.wrong, replayAll(col)...)
	return r, nil
}

// sampleSessionPeak polls the pool's accounted bytes until stop is called.
func sampleSessionPeak(e *service.Engine, peak *int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			*peak = max(*peak, e.Metrics().SessionBytes)
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// probeSubmitHit times Engine.Submit on a memory-tier hit, without HTTP.
func probeSubmitHit(e *service.Engine, q *query) ([]float64, error) {
	var out []float64
	for i := 0; i < 201; i++ {
		t0 := time.Now()
		res, err := submit(e, q)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if res.CacheTier == service.CacheTierMemory {
			out = append(out, us(d))
		}
	}
	return out, nil
}

// tally counts the window's attempts, failures and wrong answers.
func (r *report) tally(w window) {
	r.attempted, r.failed = len(w.latMS), w.failed
	r.failures = w.failures
	r.wrong = append(r.wrong, w.wrong...)
}

// replayAll replays every recorded trace on the interpreter.
func replayAll(col *collector) []string {
	var errs []string
	for _, it := range col.replays {
		if err := replayTrace(&it.q, it.status, it.t, it.trace); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return errs
}
