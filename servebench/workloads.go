package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"buffy/internal/service"
)

const (
	// clients is the number of closed-loop clients; each waits for its
	// answer before sending the next request, over its own keep-alive
	// connection.
	clients = 2
	// workers is the engine's solver pool, one per client.
	workers = 2
	// requestTimeoutMS is every request's deadline: two orders of magnitude
	// above the costliest query, so a timeout means a stall.
	requestTimeoutMS = 20000
)

// query is one generated request: the endpoint, its JSON body, the model
// the body's source comes from, and the answer the table expects.
type query struct {
	Path  string          `json:"path"`
	Model string          `json:"model"`
	Body  service.Request `json:"body"`
	Want  expect          `json:"want"`
	cite  string          // the evidence behind Want
}

// expect is a query's expected answer: the status, plus the first horizon
// with a trace for sweeps and the exact rational bounds for bounds.
type expect struct {
	Status  string `json:"status"`
	FoundAt int    `json:"found_at,omitempty"`
	Delay   string `json:"delay,omitempty"`
	Backlog string `json:"backlog,omitempty"`
}

// key identifies a distinct request, for replaying each trace once.
func (q *query) key() string {
	return fmt.Sprintf("%s %s seed=%d", q.Path, q.describe(), q.Body.RandSeed)
}

// workload is one traffic mix. Its request stream is a sequence of blocks;
// each block is a fixed multiset of queries in an order drawn from the
// seed, so runs with different seeds serve the same mix and a traced run
// can stop on a block boundary with identical work.
type workload struct {
	name string
	// config sizes the engine under test (Store is filled in by set-up).
	config service.Config
	// stored queries are answered into a durable store before set-up; the
	// engine then restarts over that store.
	stored []query
	// warmup requests run untimed before measuring.
	warmup int
	// direct makes the traced run call each layer's entry point itself
	// (one-shot solver workloads) instead of going through HTTP.
	direct bool
	block  func(s *stream) []query
}

// workloads is the registry. Each entry says which layer it loads, which
// it bypasses, and why it exists.
var workloads = []*workload{
	// compile-bound loads IR compilation: cold one-shot verify/witness
	// queries on list-model schedulers at mid horizons, where unrolling,
	// inlining and guard-SSA take 65-90% of the wall clock (fq T=6: 276 of
	// 430 ms) and search stays under 15%. The result cache is off, so
	// every request runs the whole pipeline; the cache, sessions and store
	// are bypassed. A compile or term-table change shows here.
	{
		name:   "compile-bound",
		config: service.Config{Workers: workers, CacheEntries: -1, MaxRetries: 1},
		warmup: clients,
		direct: true,
		block:  permuted(compileBound()),
	},
	// search-bound loads CDCL search: cold one-shot queries on the count
	// buffer model and on the shaper/drr verifications, where search takes
	// 70-90% of each query's wall clock (rr-count T=16: 114 of 133 ms
	// search, 1 ms compile) and compile 6% of the summed self time. The
	// cache is off. A compile change should show almost nothing here; a
	// SAT change should.
	{
		name:   "search-bound",
		config: service.Config{Workers: workers, CacheEntries: -1, MaxRetries: 1},
		warmup: clients,
		direct: true,
		block:  permuted(searchBound()),
	},
	// sweep-session loads the warm-session pool and incremental SAT:
	// /v1/sweep over 48 session keys with Zipf popularity, more than the
	// 32-entry pool, so about 40% of requests rebuild an evicted session.
	// Each key's requests alternate verify and witness sweeps, which share
	// one session. The result cache is off so every request reaches the
	// pool. Builds cost 90-600 ms, warm re-solves under 2 ms: a one-shot
	// SAT win that hurts assumption-based re-solving, or a pool change,
	// shows here. The untimed warm-up is one whole block, so every key has
	// been built once and the pool is in its steady state when measuring
	// starts.
	{
		name:   "sweep-session",
		config: service.Config{Workers: workers, CacheEntries: -1, MaxRetries: 1},
		warmup: sweepBlockSize,
		block:  sweepBlock(),
	},
	// service-replay loads the cache tiers, the store and HTTP: the
	// production engine configuration (256-entry memory LRU, retries on)
	// restarted over a store holding 400 answered queries. 90% of requests
	// repeat stored queries with Zipf popularity (memory and disk hits),
	// 0.5% are fresh cheap solves written behind, 5% are /v1/bound and
	// 4.5% /v1/vet. The solver is nearly idle, so service, store and HTTP
	// changes show here and solver changes do not. The first 6000 requests
	// are untimed, so the memory tier is warm when measuring starts.
	{
		name:   "service-replay",
		config: service.Config{Workers: workers, MaxRetries: 1},
		stored: storedQueries(),
		warmup: 6000,
		block:  replayBlock(),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream generates a workload's requests from a seed.
type stream struct {
	wl      *workload
	r       *rand.Rand
	fresh   uint64  // fresh-miss counter (service-replay)
	uses    []int   // requests so far per session key (sweep-session)
	pending []query // rest of the current block
}

func newStream(wl *workload, seed uint64) *stream {
	return &stream{wl: wl, r: rand.New(rand.NewPCG(seed, 0x5e7e))}
}

// next returns the stream's next request, starting a new block when the
// current one is used up; newBlock reports that it did.
func (s *stream) next() (q query, newBlock bool) {
	if len(s.pending) == 0 {
		s.pending = s.wl.block(s)
		newBlock = true
	}
	q, s.pending = s.pending[0], s.pending[1:]
	return q, newBlock
}

var (
	n2   = map[string]int64{"N": 2}
	n3   = map[string]int64{"N": 3}
	n4   = map[string]int64{"N": 4}
	sptp = map[string]int64{"RH": 1, "BH": 2, "RV": 1, "BV": 2, "C": 3}
)

func horizons(model string, kind service.Kind, buf string, params map[string]int64, lo, hi int) []query {
	var qs []query
	for t := lo; t <= hi; t++ {
		qs = append(qs, oneShot(model, kind, buf, params, t))
	}
	return qs
}

func compileBound() []query {
	w, v := service.KindWitness, service.KindVerify
	return slices.Concat(
		horizons("fq-buggy", w, "list", n3, 3, 6),
		horizons("fq-buggy", w, "list", n2, 4, 8),
		horizons("fq-fixed", v, "list", n3, 4, 6),
		horizons("rr", w, "list", n2, 4, 10),
		horizons("sp", w, "list", n3, 4, 8),
		horizons("sptandem", v, "list", sptp, 4, 5),
	)
}

func searchBound() []query {
	w, v := service.KindWitness, service.KindVerify
	return slices.Concat(
		horizons("rr", w, "count", n2, 12, 16),
		horizons("rr", w, "count", n3, 6, 10),
		horizons("fq-buggy", w, "count", n3, 6, 8),
		horizons("fq-fixed", w, "count", n3, 6, 8),
		horizons("shaper", v, "list", map[string]int64{"RATE": 2, "BURST": 3}, 10, 12),
		horizons("shaper", v, "list", map[string]int64{"RATE": 1, "BURST": 3}, 8, 10),
		horizons("drr", v, "list", map[string]int64{"N": 2, "Q": 2}, 6, 6),
	)
}

// permuted makes each block one pass over qs in a seeded order.
func permuted(qs []query) func(*stream) []query {
	return func(s *stream) []query {
		out := append([]query(nil), qs...)
		s.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

type sweepKey struct {
	model, buf string
	params     map[string]int64
	maxT       int
}

// sweepKeys are the session keys of sweep-session in popularity order:
// holds-everywhere models whose verify sweeps run to maxT (builds of
// 90-600 ms, re-solves under 2 ms) and shallow scheduler sweeps that stop
// at T=1 or T=2. Under the pool's LRU the first nine keys stay pooled,
// the next three are evicted about half the time and the last 36 nearly
// always, so the deepest builds happen once and the evicted keys cost a
// similar 90-240 ms each.
func sweepKeys() []sweepKey {
	shaper := func(rate, burst int64, maxT int) sweepKey {
		return sweepKey{"shaper", "list", map[string]int64{"RATE": rate, "BURST": burst}, maxT}
	}
	tbrl := func(rate, burst, c int64, maxT int) sweepKey {
		return sweepKey{"tbrl", "list", map[string]int64{"RATE": rate, "BURST": burst, "C": c}, maxT}
	}
	drr := func(q int64, maxT int) sweepKey {
		return sweepKey{"drr", "list", map[string]int64{"N": 2, "Q": q}, maxT}
	}
	return []sweepKey{
		drr(2, 5), {"sptandem", "list", sptp, 5}, shaper(2, 3, 12), drr(3, 4), {"sptandem", "list", sptp, 4},
		shaper(1, 3, 10), drr(2, 4), {"fq-buggy", "list", n3, 8}, tbrl(1, 3, 2, 8),

		{"rr", "count", n2, 6}, {"sp", "count", n2, 6}, {"rr", "count", n3, 6},

		shaper(1, 2, 6), shaper(1, 3, 8), shaper(1, 4, 8), shaper(2, 2, 8), shaper(2, 3, 8), shaper(2, 4, 8),
		shaper(3, 2, 6), shaper(3, 3, 8), shaper(3, 4, 8), shaper(3, 1, 6), shaper(2, 1, 6),
		tbrl(1, 1, 2, 6), tbrl(1, 2, 2, 6), tbrl(1, 3, 2, 6), tbrl(1, 2, 3, 6), tbrl(2, 2, 2, 6),
		tbrl(2, 3, 2, 6), tbrl(2, 2, 3, 6), tbrl(2, 3, 3, 6), tbrl(1, 1, 3, 8), tbrl(2, 1, 3, 6),
		drr(1, 4),
		{"fq-buggy", "list", n2, 4}, {"fq-buggy", "list", n2, 6}, {"fq-buggy", "list", n2, 8},
		{"fq-buggy", "list", n3, 4}, {"fq-buggy", "list", n3, 6}, {"fq-buggy", "count", n3, 6},
		{"rr", "count", n2, 8}, {"rr", "count", n2, 10}, {"rr", "count", n3, 8}, {"rr", "count", n3, 10},
		{"rr", "count", n4, 6}, {"sp", "count", n3, 6}, {"sp", "count", n4, 6}, {"sp", "count", n2, 8},
	}
}

const (
	sweepBlockSize = 192
	sweepZipfS     = 1.0
)

// sweepBlock gives every key its Zipf share of each block (at least one
// request), spread evenly over the block from a seeded phase per key, so
// a key's reuse distance, and with it whether the pool still holds its
// session, varies little from seed to seed. A key's requests alternate
// verify and witness sweeps across the whole stream.
func sweepBlock() func(*stream) []query {
	keys := sweepKeys()
	qs := make([][2]query, len(keys))
	for i, k := range keys {
		qs[i] = [2]query{sweep(k.model, k.buf, k.params, k.maxT, service.KindVerify),
			sweep(k.model, k.buf, k.params, k.maxT, service.KindWitness)}
	}
	counts := zipfCounts(len(keys), sweepBlockSize, sweepZipfS)
	type slot struct {
		at  float64
		key int
	}
	return func(s *stream) []query {
		if s.uses == nil {
			s.uses = make([]int, len(keys))
		}
		slots := make([]slot, 0, sweepBlockSize)
		for k, c := range counts {
			phase := s.r.Float64()
			for j := 0; j < c; j++ {
				slots = append(slots, slot{(phase + float64(j)) / float64(c), k})
			}
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
		out := make([]query, len(slots))
		for i, sl := range slots {
			out[i] = qs[sl.key][(s.uses[sl.key]+sl.key)%2]
			s.uses[sl.key]++
		}
		return out
	}
}

// zipfWeights are the normalized Zipf(s) probabilities of ranks 0..n-1.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// zipfCounts splits total requests over n ranks in Zipf(s) proportion by
// largest remainder, giving every rank at least one.
func zipfCounts(n, total int, s float64) []int {
	w := zipfWeights(n, s)
	counts := make([]int, n)
	spare := total - n // requests left after one per rank
	left := spare
	rem := make([]float64, n)
	for i := range counts {
		exact := w[i] * float64(spare)
		counts[i] = 1 + int(exact)
		rem[i] = exact - float64(int(exact))
		left -= int(exact)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// replayBase are 200 cheap distinct queries (0.02-20 ms each): shaper and
// tbrl verifications and witnesses, and round-robin queries on the count
// model, with verdicts of every kind and traces of several sizes.
func replayBase() []query {
	w, v := service.KindWitness, service.KindVerify
	var qs []query
	for _, rate := range []int64{1, 2, 3} {
		for _, burst := range []int64{1, 2, 3, 4} {
			p := map[string]int64{"RATE": rate, "BURST": burst}
			qs = append(qs, horizons("shaper", v, "list", p, 1, 4)...)
			qs = append(qs, horizons("shaper", w, "list", p, 1, 4)...)
		}
	}
	for _, rate := range []int64{1, 2} {
		for _, burst := range []int64{1, 2, 3} {
			for _, c := range []int64{2, 3} {
				p := map[string]int64{"RATE": rate, "BURST": burst, "C": c}
				qs = append(qs, horizons("tbrl", v, "list", p, 1, 3)...)
				qs = append(qs, horizons("tbrl", w, "list", p, 1, 3)...)
			}
		}
	}
	for _, p := range []map[string]int64{n2, n3} {
		qs = append(qs, horizons("rr", w, "count", p, 1, 8)...)
		qs = append(qs, horizons("rr", v, "count", p, 1, 8)...)
	}
	return qs
}

// storedQueries are the 400 queries service-replay's store holds: each
// base query with two search seeds. The seed is part of the cache key but
// not of the answer (random branching stays off).
func storedQueries() []query {
	var qs []query
	for _, seed := range []uint64{0, 1} {
		for _, q := range replayBase() {
			q.Body.RandSeed = seed
			qs = append(qs, q)
		}
	}
	return qs
}

const (
	replayBlockSize = 200
	replayFresh     = 1  // fresh cheap solves per block (0.5%)
	replayBounds    = 10 // /v1/bound per block (5%)
	replayVets      = 9  // /v1/vet per block (4.5%)
	replayZipfS     = 1.0
	// freshSeedBase starts the search seeds of fresh misses above those of
	// stored queries, so every fresh query is a new cache key.
	freshSeedBase = 1000
)

func replayBlock() func(*stream) []query {
	stored := storedQueries()
	rank := rand.New(rand.NewPCG(400, 1)).Perm(len(stored)) // fixed popularity order
	cdf := zipfWeights(len(stored), replayZipfS)
	for i := 1; i < len(cdf); i++ {
		cdf[i] += cdf[i-1]
	}
	popular := func(s *stream) query {
		i := sort.SearchFloat64s(cdf, s.r.Float64())
		return stored[rank[min(i, len(cdf)-1)]]
	}
	var cheap []query // fresh misses reuse the cheapest base queries
	for _, q := range replayBase() {
		if q.Body.T <= 3 {
			cheap = append(cheap, q)
		}
	}
	bounds := boundQueries()
	return func(s *stream) []query {
		out := make([]query, 0, replayBlockSize)
		for i := 0; i < replayFresh; i++ {
			q := cheap[s.r.IntN(len(cheap))]
			q.Body.RandSeed = freshSeedBase + s.fresh
			s.fresh++
			out = append(out, q)
		}
		for i := 0; i < replayBounds; i++ {
			out = append(out, bounds[s.r.IntN(len(bounds))])
		}
		for i := 0; i < replayVets; i++ {
			q := popular(s)
			q.Path = "/v1/vet"
			out = append(out, q)
		}
		for len(out) < replayBlockSize {
			out = append(out, popular(s))
		}
		s.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}
