package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"buffy/internal/backend/smtbe"
	"buffy/internal/service"
	"buffy/internal/store"
)

// env is one instance of the system under test: an engine served by
// service.NewHandler on a loopback listener, and the clients' keep-alive
// HTTP client.
type env struct {
	engine   *service.Engine
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client
	openTime time.Duration // store.Open, recovery scan included
}

func openStore(dir string) (*store.Store, error) {
	return store.Open(store.Options{Dir: dir, Fingerprint: service.PipelineFingerprint(), MaxBytes: 1 << 30})
}

// start brings the system up to the point where it answers a first
// request; storeDir, when set, is opened as the engine's durable tier.
func start(wl *workload, storeDir string) (*env, error) {
	cfg := wl.config
	v := &env{served: make(chan error, 1)}
	if storeDir != "" {
		t0 := time.Now()
		st, err := openStore(storeDir)
		if err != nil {
			return nil, err
		}
		v.openTime = time.Since(t0)
		cfg.Store = st
	}
	v.engine = service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownEngine(v.engine)
		return nil, err
	}
	v.base = "http://" + ln.Addr().String()
	v.srv = &http.Server{Handler: service.NewHandler(v.engine)}
	go func() { v.served <- v.srv.Serve(ln) }()
	v.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
	resp, err := v.client.Get(v.base + "/healthz/ready")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readiness: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		return nil, errors.Join(err, v.close())
	}
	return v, nil
}

// close stops the listener, drains the engine (flushing write-behinds and
// closing the store) and waits for the server goroutine to return.
func (v *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := v.srv.Shutdown(ctx)
	if serr := <-v.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	v.client.CloseIdleConnections()
	return errors.Join(err, v.engine.Shutdown(ctx))
}

func shutdownEngine(e *service.Engine) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return e.Shutdown(ctx)
}

// outcome is what a client observed for one request.
type outcome struct {
	path    string
	latency time.Duration
	failed  string // why the request failed (transport, HTTP status, unknown answer), or ""
	wrong   string // how the answer contradicts the expected-verdict table, or ""
	bytes   int
	tier    string // cache tier that served a hit, "" for a computed answer
	// sessionHit marks a sweep served by an already-pooled session;
	// horizonsUS are its per-horizon solve times.
	sessionHit bool
	horizonsUS []float64
	// work is what the layers did for the request, as far as the answer
	// shows it: a one-shot solve's encoding size and search effort, a
	// sweep's per-horizon conflicts, or every counter on the traced path.
	work layerCounts

	// trace is a SAT answer's trace over traceT steps, to replay; the
	// collector drops it once recorded.
	trace  *smtbe.Trace
	traceT int
	status string
}

// do sends one request and checks its answer.
func (v *env) do(_ int64, q *query) outcome {
	o := outcome{path: q.Path}
	body, err := json.Marshal(&q.Body)
	if err != nil {
		o.failed = err.Error()
		return o
	}
	start := time.Now()
	resp, err := v.client.Post(v.base+q.Path, "application/json", bytes.NewReader(body))
	if err != nil {
		o.latency, o.failed = time.Since(start), err.Error()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency, o.bytes = time.Since(start), len(data)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
	}
	if err != nil {
		o.failed = err.Error()
		return o
	}
	if q.Path == "/v1/vet" {
		var vr service.VetResponse
		if err := json.Unmarshal(data, &vr); err != nil {
			o.failed = err.Error()
		} else {
			o.wrong = q.checkVet(&vr)
		}
		return o
	}
	view, err := decodeView(q.Path, data, &o)
	switch {
	case err != nil:
		o.failed = err.Error()
	case view.Result == nil:
		o.failed = fmt.Sprintf("job %s %s: %s", view.ID, view.State, view.Error)
	default:
		o.record(q, view.Result)
	}
	return o
}

// sweepLine is one NDJSON line of a /v1/sweep response.
type sweepLine struct {
	Verdict *service.SweepVerdict `json:"verdict"`
	Done    *service.JobView      `json:"done"`
}

// decodeView parses a job view; for sweeps it reads the NDJSON stream,
// collecting per-horizon solve times and conflicts.
func decodeView(path string, data []byte, o *outcome) (*service.JobView, error) {
	if path != "/v1/sweep" {
		var view service.JobView
		err := json.Unmarshal(data, &view)
		return &view, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var line sweepLine
		if err := dec.Decode(&line); err == io.EOF {
			return nil, errors.New("sweep stream ended without a done line")
		} else if err != nil {
			return nil, err
		}
		if line.Verdict != nil {
			o.horizonsUS = append(o.horizonsUS, float64(line.Verdict.DurationUS))
			o.work.conflicts += line.Verdict.Conflicts
		}
		if line.Done != nil {
			return line.Done, nil
		}
	}
}

// record checks a result against the table and keeps what the metrics
// and the replay need.
func (o *outcome) record(q *query, res *service.Result) {
	if res.Status == "unknown" {
		o.failed = "unknown: " + res.StopReason
		return
	}
	o.wrong = q.checkResult(res)
	o.tier, o.sessionHit = res.CacheTier, res.SessionHit
	if res.Trace != nil && hasTrace(res.Status) {
		o.trace, o.status, o.traceT = res.Trace, res.Status, q.Body.T
		if q.Path == "/v1/sweep" {
			o.traceT = res.FoundAt
		}
		if !res.CacheHit {
			o.work.traces = 1
		}
	}
	if !res.CacheHit && res.Tier != "static" && q.Path != "/v1/sweep" && q.Path != "/v1/bound" {
		st := res.SatStats
		o.work.vars, o.work.clauses = int64(res.NumVars), int64(res.NumClauses)
		o.work.conflicts, o.work.decisions, o.work.propagations = st.Conflicts, st.Decisions, st.Propagations
		o.work.learnt, o.work.restarts, o.work.learntMem = st.Learnt, st.Restarts, st.LearntBytes
	}
}

// window is what the clients observed over one stretch of a run.
type window struct {
	latMS    []float64 // per request; +Inf when it failed
	failed   int
	failures []string // the first few failure messages
	wrong    []string
	outcomes []outcome // every outcome, when the collector keeps them
}

// maxFailureNotes bounds the failure messages a window keeps.
const maxFailureNotes = 5

// collector gathers the clients' outcomes and keeps one trace per
// distinct request for replay: repeated solves of one request are
// deterministic, and cache hits return the stored answer. Untraced runs
// keep only latencies, so the benchmark's own memory stays out of the
// measured peak RSS.
type collector struct {
	mu      sync.Mutex
	keep    bool
	win     window
	replays map[string]replayItem
}

type replayItem struct {
	q      query
	status string
	t      int
	trace  *smtbe.Trace
}

func newCollector(keep bool) *collector {
	return &collector{keep: keep, replays: make(map[string]replayItem)}
}

func (c *collector) add(q *query, o outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if o.trace != nil {
		if k := q.key(); c.replays[k].trace == nil {
			c.replays[k] = replayItem{q: *q, status: o.status, t: o.traceT, trace: o.trace}
		}
		o.trace = nil
	}
	w := &c.win
	lat := ms(o.latency)
	if o.failed != "" {
		lat = math.Inf(1)
		w.failed++
		if len(w.failures) < maxFailureNotes {
			w.failures = append(w.failures, o.failed)
		}
	}
	w.latMS = append(w.latMS, lat)
	if o.wrong != "" {
		w.wrong = append(w.wrong, o.wrong)
	}
	if c.keep {
		w.outcomes = append(w.outcomes, o)
	}
}

// take returns what was gathered since the last take.
func (c *collector) take() window {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.win
	c.win = window{}
	return w
}

// feed hands the stream's requests to the clients until a stop condition
// holds. With whole set, the deadline is checked only between blocks; the
// deadline never ends the feed before minQueries requests.
type feed struct {
	mu         sync.Mutex
	s          *stream
	deadline   time.Time
	whole      bool
	minQueries int
	maxBlocks  int
	maxQueries int
	blocks     int
	served     int
}

func (f *feed) next() (int64, query, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.maxQueries > 0 && f.served >= f.maxQueries {
		return 0, query{}, false
	}
	boundary := len(f.s.pending) == 0
	late := !f.deadline.IsZero() && time.Now().After(f.deadline) && f.served >= f.minQueries
	if late && (!f.whole || boundary) || boundary && f.maxBlocks > 0 && f.blocks >= f.maxBlocks {
		return 0, query{}, false
	}
	q, fresh := f.s.next()
	if fresh {
		f.blocks++
	}
	f.served++
	return int64(f.served), q, true
}

// drive runs the closed loop: each client takes the next request, sends
// it and waits for the answer, until the feed stops. It returns the wall
// time until the last answer arrived.
func drive(f *feed, do func(int64, *query) outcome, col *collector) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, q, ok := f.next()
				if !ok {
					return
				}
				col.add(&q, do(id, &q))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
