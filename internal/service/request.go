// Package service is Buffy's analysis service layer: a job engine that
// fans analysis requests out across a bounded worker pool, deduplicates
// repeated work through a content-addressed result cache, enforces
// per-job deadlines through cooperative solver cancellation, and exposes
// the observability counters (queue depth, cache hit rate, solve
// latencies, cumulative SAT effort) a long-lived query service needs.
//
// The package is the bridge between the one-shot core facade and the
// cmd/buffy-serve HTTP front-end: handlers submit Requests, workers run
// them through core.Program's context-aware entry points, and results
// are cached under a hash of everything that determines the answer.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"buffy/internal/backend/fperf"
	"buffy/internal/backend/netcalc"
	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/lang/typecheck"
	"buffy/internal/portfolio"
	"buffy/internal/session"
	"buffy/internal/smt/bitblast"
	"buffy/internal/smt/sat"
)

// Kind selects which analysis a request runs.
type Kind string

// Analysis kinds, mirroring the core facade's query directions.
const (
	KindVerify     Kind = "verify"     // BMC: do the asserts hold on all executions?
	KindWitness    Kind = "witness"    // FPerf direction: find a query witness trace
	KindSynthesize Kind = "synthesize" // FPerf back-end: synthesize a guaranteeing workload
	KindBound      Kind = "bound"      // network-calculus analytical delay/backlog bounds
	KindSweep      Kind = "sweep"      // minimal-horizon sweep on a warm pooled session
)

// Request is one analysis query. Every field that can change the answer
// participates in the cache key.
type Request struct {
	Kind   Kind   `json:"kind,omitempty"`
	Source string `json:"source"`
	// T is the time horizon (steps); defaults to 4 like buffyc.
	T      int              `json:"t,omitempty"`
	Params map[string]int64 `json:"params,omitempty"`
	// Model selects buffer precision: "list" (default), "count", "multiclass".
	Model string `json:"model,omitempty"`
	// Width is the solver integer bit width (0 = default 12).
	Width           int `json:"width,omitempty"`
	BufferCap       int `json:"buffer_cap,omitempty"`
	OutBufferCap    int `json:"out_buffer_cap,omitempty"`
	ArrivalsPerStep int `json:"arrivals_per_step,omitempty"`
	NumClasses      int `json:"num_classes,omitempty"`
	MaxBytes        int `json:"max_bytes,omitempty"`
	ListCap         int `json:"list_cap,omitempty"`
	// MaxConflicts bounds each solver call (0 = unlimited).
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// MaxPropagations bounds each solver call's unit propagations — a
	// deterministic CPU-effort proxy (0 = unlimited).
	MaxPropagations int64 `json:"max_propagations,omitempty"`
	// MaxLearntBytes bounds the learnt-clause database's estimated memory
	// footprint per solver call (0 = unlimited).
	MaxLearntBytes int64 `json:"max_learnt_bytes,omitempty"`
	// TimeoutMS bounds the whole job's wall time; 0 uses the engine's
	// default. The deadline aborts the in-flight CDCL search cooperatively.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Portfolio races this many diversified solver configurations on a
	// verify/witness query and returns the first conclusive answer,
	// cancelling the losers (0 or 1 = single solver). Capped at
	// MaxPortfolio; ignored for synthesize jobs.
	Portfolio int `json:"portfolio,omitempty"`
	// Search heuristics for single-config solves (portfolio runs use the
	// built-in diversified set instead). Zero values are the defaults;
	// every knob participates in the cache key — two requests with
	// different search options never alias to one cached result.
	RestartBase  int64   `json:"restart_base,omitempty"`
	GeomRestarts bool    `json:"geom_restarts,omitempty"`
	VarDecay     float64 `json:"var_decay,omitempty"`
	InitPhase    bool    `json:"init_phase,omitempty"`
	RandSeed     uint64  `json:"rand_seed,omitempty"`
	RandFreq     float64 `json:"rand_freq,omitempty"`
	// CrossCheck makes a bound job differentially validate its analytical
	// bounds against the SMT backend at horizon T (kind == bound only): a
	// reachable execution beyond the bound fails the job hard.
	CrossCheck bool `json:"cross_check,omitempty"`
	// MaxT is the sweep's deepest horizon (kind == sweep; default 8). It is
	// also the warm session's capacity, so it participates in the session
	// fingerprint: sweeps to different depths use different sessions.
	MaxT int `json:"max_t,omitempty"`
	// SweepMode is the per-horizon query direction for a sweep: "verify"
	// (default) or "witness".
	SweepMode string `json:"sweep_mode,omitempty"`
}

// MaxPortfolio bounds how many solver configurations one request may
// race: each costs a goroutine, a full encoding and a CDCL search, so an
// unchecked value would let a single request monopolize the machine.
const MaxPortfolio = 16

// MaxHorizon bounds accepted time horizons: the encoding grows with T and
// a service must not let one request monopolize the pool indefinitely.
const MaxHorizon = 256

// Validate rejects malformed requests before they reach the queue.
func (r *Request) Validate() error {
	if _, ok := kinds[r.Kind]; !ok {
		return fmt.Errorf("service: unknown kind %q (want %s)", r.Kind, kindNames())
	}
	return r.validateFields()
}

// validateFields is Validate without the kind check: every route's body,
// /v1/vet included, must pass it.
func (r *Request) validateFields() error {
	if r.Source == "" {
		return fmt.Errorf("service: empty program source")
	}
	if r.T < 0 || r.T > MaxHorizon {
		return fmt.Errorf("service: horizon T=%d out of range [0, %d]", r.T, MaxHorizon)
	}
	// bitblast.New panics outside [MinWidth, MaxWidth]; an unchecked width
	// must never reach a worker.
	if r.Width != 0 && (r.Width < bitblast.MinWidth || r.Width > bitblast.MaxWidth) {
		return fmt.Errorf("service: width %d out of range (0 for default, else [%d, %d])",
			r.Width, bitblast.MinWidth, bitblast.MaxWidth)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"buffer_cap", int64(r.BufferCap)}, {"out_buffer_cap", int64(r.OutBufferCap)},
		{"arrivals_per_step", int64(r.ArrivalsPerStep)}, {"num_classes", int64(r.NumClasses)},
		{"max_bytes", int64(r.MaxBytes)}, {"list_cap", int64(r.ListCap)},
		{"max_conflicts", r.MaxConflicts}, {"max_propagations", r.MaxPropagations},
		{"max_learnt_bytes", r.MaxLearntBytes}, {"timeout_ms", r.TimeoutMS},
		{"restart_base", r.RestartBase},
	} {
		if f.v < 0 {
			return fmt.Errorf("service: negative %s", f.name)
		}
	}
	if r.Portfolio < 0 || r.Portfolio > MaxPortfolio {
		return fmt.Errorf("service: portfolio %d out of range [0, %d]", r.Portfolio, MaxPortfolio)
	}
	if r.VarDecay < 0 || r.VarDecay > 1 {
		return fmt.Errorf("service: var_decay %g out of range [0, 1]", r.VarDecay)
	}
	if r.RandFreq < 0 || r.RandFreq > 1 {
		return fmt.Errorf("service: rand_freq %g out of range [0, 1]", r.RandFreq)
	}
	if r.MaxT < 0 || r.MaxT > MaxHorizon {
		return fmt.Errorf("service: max_t %d out of range [0, %d]", r.MaxT, MaxHorizon)
	}
	switch r.SweepMode {
	case "", "verify", "witness":
	default:
		return fmt.Errorf("service: sweep_mode %q (want verify | witness)", r.SweepMode)
	}
	return nil
}

// effMaxT is the sweep depth with the default applied.
func (r *Request) effMaxT() int {
	if r.MaxT == 0 {
		return 8
	}
	return r.MaxT
}

// searchOptions maps the request's heuristic knobs to sat.Options.
func (r *Request) searchOptions() sat.Options {
	return sat.Options{
		RestartBase:  r.RestartBase,
		GeomRestarts: r.GeomRestarts,
		VarDecay:     r.VarDecay,
		InitPhase:    r.InitPhase,
		RandSeed:     r.RandSeed,
		RandFreq:     r.RandFreq,
	}
}

func (r *Request) analysis() core.Analysis {
	t := r.T
	if t == 0 {
		t = 4
	}
	return core.Analysis{
		T:      t,
		Params: r.Params,
		Model:  r.Model,
		Width:  r.Width,
		Bounds: typecheck.Bounds{
			BufferCap: r.BufferCap, OutBufferCap: r.OutBufferCap,
			ArrivalsPerStep: r.ArrivalsPerStep, NumClasses: r.NumClasses,
			MaxBytes: r.MaxBytes, ListCap: r.ListCap,
		},
		MaxConflicts:    r.MaxConflicts,
		MaxPropagations: r.MaxPropagations,
		MaxLearntBytes:  r.MaxLearntBytes,
		Search:          r.searchOptions(),
		Portfolio:       r.Portfolio,
		CrossCheck:      r.CrossCheck,
	}
}

// CacheKey returns the content address of the request: a hash over the
// program source, buffer model, horizon, query kind, compile-time
// parameters, solver options and search heuristics. Two requests with
// equal keys are guaranteed to produce the same analysis answer, so the
// engine serves repeats straight from cache without re-solving. The
// heuristic knobs and portfolio size cannot change a *correct* answer,
// but they do change which result object (trace, effort counters,
// winning config) comes back — so they participate in the key and
// differently-configured requests never alias.
func (r *Request) CacheKey() string {
	h := newKeyHasher()
	h.field(string(r.Kind))
	h.int(int64(r.T))
	h.int(int64(r.Portfolio))
	h.bool(r.CrossCheck)
	h.int(int64(r.MaxT))
	h.field(r.SweepMode)
	r.writeSolverFields(h)
	return h.sum()
}

// SessionKey is the content address of the warm-session fingerprint: a
// hash over everything that determines the session's encoding and solver
// behavior — program source, buffer model, compile-time parameters,
// capacity heuristics, bit width, per-call solver budgets and search
// heuristics, and the session capacity (effMaxT). Deliberately absent:
// the query direction and per-request horizon (those are retractable
// assumptions on one shared encoding — the whole point of a session) and
// the wall-clock timeout (a context property, not a solver one). Two
// requests with equal session keys may safely share one warm session.
func (r *Request) SessionKey() string {
	h := newKeyHasher()
	h.int(int64(r.effMaxT()))
	r.writeSolverFields(h)
	return h.sum()
}

// writeSolverFields hashes every knob that changes the encoding or the
// solver's behavior — the shared core of CacheKey and SessionKey. Adding
// a solver-relevant Request field means adding it here, which keeps the
// two keys from silently diverging (TestSessionKeyDiscriminates enforces
// this per field).
func (r *Request) writeSolverFields(h *keyHasher) {
	h.field(r.Source)
	h.field(r.Model)
	h.int(int64(r.Width))
	h.int(int64(r.BufferCap))
	h.int(int64(r.OutBufferCap))
	h.int(int64(r.ArrivalsPerStep))
	h.int(int64(r.NumClasses))
	h.int(int64(r.MaxBytes))
	h.int(int64(r.ListCap))
	h.int(r.MaxConflicts)
	h.int(r.MaxPropagations)
	h.int(r.MaxLearntBytes)
	h.int(r.RestartBase)
	h.bool(r.GeomRestarts)
	h.float(r.VarDecay)
	h.bool(r.InitPhase)
	h.uint(r.RandSeed)
	h.float(r.RandFreq)
	names := make([]string, 0, len(r.Params))
	for name := range r.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.field(name)
		h.int(r.Params[name])
	}
}

// keyHasher is a length-prefixed sha256 field hasher shared by the cache
// and session keys.
type keyHasher struct{ h hash.Hash }

func newKeyHasher() *keyHasher { return &keyHasher{h: sha256.New()} }

func (k *keyHasher) field(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	k.h.Write(n[:])
	k.h.Write([]byte(s))
}

func (k *keyHasher) int(v int64) { k.uint(uint64(v)) }

func (k *keyHasher) uint(v uint64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	k.h.Write(n[:])
}

func (k *keyHasher) float(v float64) { k.uint(math.Float64bits(v)) }

func (k *keyHasher) bool(v bool) {
	if v {
		k.int(1)
	} else {
		k.int(0)
	}
}

func (k *keyHasher) sum() string { return hex.EncodeToString(k.h.Sum(nil)) }

// Result is the serializable outcome of an analysis job. Trace is set for
// verify/witness results that produced one; Workload for synthesis.
type Result struct {
	Kind   Kind         `json:"kind"`
	Status string       `json:"status"`
	Trace  *smtbe.Trace `json:"trace,omitempty"`
	// Synthesis outcome (kind == synthesize).
	WorkloadFound bool   `json:"workload_found,omitempty"`
	Workload      string `json:"workload,omitempty"`
	Checks        int    `json:"checks,omitempty"`
	// Bound outcome (kind == bound): the victim flow's analytical bounds as
	// exact rationals ("13/5"), Delay in steps, Backlog in packets; both
	// empty when the flow is unbounded. DurationUS is the analytical solve
	// time — microseconds, where a millisecond counter would read zero.
	Victim     string                    `json:"victim,omitempty"`
	Delay      string                    `json:"delay,omitempty"`
	Backlog    string                    `json:"backlog,omitempty"`
	DurationUS int64                     `json:"duration_us,omitempty"`
	CrossCheck *netcalc.CrossCheckReport `json:"cross_check,omitempty"`
	// Solver effort and encoding size.
	SatStats   sat.Stats `json:"sat_stats"`
	NumClauses int       `json:"num_clauses,omitempty"`
	NumVars    int       `json:"num_vars,omitempty"`
	DurationMS int64     `json:"duration_ms"`
	// Portfolio outcome (requests with portfolio > 1 that reached the
	// solver tier): how many configs raced and which one produced the
	// first conclusive answer.
	PortfolioSize   int    `json:"portfolio,omitempty"`
	PortfolioWinner string `json:"portfolio_winner,omitempty"`
	// CacheHit marks a response served from the result cache; CacheTier
	// says which tier served it (CacheTierMemory or CacheTierDisk —
	// empty for solved responses).
	CacheHit  bool   `json:"cache_hit"`
	CacheTier string `json:"cache_tier,omitempty"`
	// Tier names the analysis tier that answered: "static" when the
	// pre-solve analyzer decided the query without a solver, else empty
	// (SMT tier).
	Tier string `json:"tier,omitempty"`
	// StopReason names which resource budget (or deadline/cancel) halted
	// the search when Status is "unknown": "conflicts", "propagations",
	// "learnt-bytes", "deadline" or "cancel".
	StopReason string `json:"stop_reason,omitempty"`
	// Attempts counts how many times the engine ran the analysis (1 = no
	// retry); Degraded names the degradation step applied, if any.
	Attempts int    `json:"attempts,omitempty"`
	Degraded string `json:"degraded,omitempty"`
	// Sweep outcome (kind == sweep): every solved horizon's verdict in
	// order, the first horizon that produced a trace (0 = none up to
	// max_t), whether every horizon ran warm, and whether the sweep reused
	// an already-pooled session (false: it built — and pooled — a new one).
	Verdicts   []SweepVerdict `json:"verdicts,omitempty"`
	FoundAt    int            `json:"found_at,omitempty"`
	Warm       bool           `json:"warm,omitempty"`
	SessionHit bool           `json:"session_hit,omitempty"`
	// Search is the solver introspection record (timeline samples,
	// restart/simplify marks, depth/LBD distributions, per-portfolio-
	// config effort): the payload behind /v1/jobs/{id}/explain and
	// buffyc -explain. Only present when a solver actually ran — static-
	// tier and netcalc answers carry none. Rides the result through both
	// cache tiers, so explain works on cache hits.
	Search *sat.SearchReport `json:"search_report,omitempty"`
}

// SweepVerdict is the wire form of one horizon's answer within a sweep.
type SweepVerdict struct {
	T          int    `json:"t"`
	Status     string `json:"status"`
	Warm       bool   `json:"warm"`
	DurationUS int64  `json:"duration_us"`
	Conflicts  int64  `json:"conflicts"`
}

// Cache tiers stamped into Result.CacheTier on a hit.
const (
	// CacheTierMemory is the in-process LRU.
	CacheTierMemory = "memory"
	// CacheTierDisk is the durable result store (the entry is promoted
	// into the memory tier as it is served).
	CacheTierDisk = "disk"
)

// conclusive reports whether the result is a definite answer worth
// caching; Unknown outcomes (budget exhausted, cancelled) are not.
func (res *Result) conclusive() bool {
	switch res.Status {
	case smtbe.Holds.String(), smtbe.CounterexampleFound.String(),
		smtbe.WitnessFound.String(), smtbe.NoWitness.String():
		return true
	case "synthesized", "no-workload":
		return true
	case "bounded", "unbounded":
		return true
	}
	return false
}

// resultFromCheck flattens a verify/witness outcome into the wire result.
// When a race ran it is stamped with the race's shape, and DurationMS is
// the race's wall clock (what the client actually waited), not the
// winning config's solo solve time. A race with no result at all reports
// Unknown.
func resultFromCheck(kind Kind, pr *portfolio.Result) *Result {
	res := &Result{Kind: kind, Status: smtbe.Unknown.String()}
	if r := pr.Result; r != nil {
		res.Status = r.Status.String()
		res.Trace = r.Trace
		res.SatStats = r.SatStats
		res.NumClauses = r.NumClauses
		res.NumVars = r.NumVars
		res.DurationMS = r.Duration.Milliseconds()
		res.StopReason = r.Stop.String()
		res.Tier = r.Tier
	}
	if len(pr.Runs) > 0 {
		res.PortfolioSize = len(pr.Runs)
		res.PortfolioWinner = pr.Winner
		res.DurationMS = pr.WallClock.Milliseconds()
	}
	return res
}

// resultFromBound flattens a netcalc bound answer into the wire result.
// Status "bounded" carries the exact rational bounds; "unbounded" is a
// definite negative answer (the topology offers the victim no guarantee),
// not an Unknown — both cache. The cross-check report rides along when a
// differential validation ran; a disagreement never reaches here (it is a
// hard job failure).
func resultFromBound(r *netcalc.Result) *Result {
	res := &Result{
		Kind:       KindBound,
		Status:     "unbounded",
		Victim:     r.Victim,
		DurationMS: r.Duration.Milliseconds(),
		DurationUS: r.Duration.Microseconds(),
		CrossCheck: r.CrossCheck,
	}
	if r.Bounded {
		res.Status = "bounded"
		res.Delay = r.Delay.RatString()
		res.Backlog = r.Backlog.RatString()
	}
	return res
}

// resultFromSweep flattens a sweep outcome into the wire result. The
// top-level status, trace and solver-effort fields are the final
// horizon's (the one that ended the sweep): its own search, not the warm
// session's lifetime. The per-horizon story rides in Verdicts.
func resultFromSweep(sr *session.SweepResult, hit bool) *Result {
	res := resultFromCheck(KindSweep, &portfolio.Result{Result: sr.Final})
	res.DurationMS = sr.Duration.Milliseconds()
	res.FoundAt = sr.FoundAt
	res.Warm = sr.Warm
	res.SessionHit = hit
	for _, v := range sr.Verdicts {
		res.Verdicts = append(res.Verdicts, verdictOf(v))
	}
	return res
}

func verdictOf(v session.Verdict) SweepVerdict {
	return SweepVerdict{
		T: v.T, Status: v.Status.String(), Warm: v.Warm,
		DurationUS: v.Duration.Microseconds(), Conflicts: v.Conflicts,
	}
}

func resultFromSynth(r *fperf.Result) *Result {
	// A Found=false answer is only the definite "no-workload" when every
	// solver check was conclusive; a budget-exhausted synthesis is Unknown
	// and must not be cached as a definite answer.
	status := "no-workload"
	if r.Inconclusive {
		status = "unknown"
	}
	res := &Result{
		Kind:          KindSynthesize,
		Status:        status,
		WorkloadFound: r.Found,
		Checks:        r.Checks,
		DurationMS:    r.Duration.Milliseconds(),
	}
	if r.Found {
		res.Status = "synthesized"
		res.Workload = r.Workload.String()
	}
	return res
}
