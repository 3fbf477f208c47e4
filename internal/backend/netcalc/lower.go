package netcalc

import (
	"fmt"
	"math/big"

	"buffy/internal/lang/ast"
	"buffy/internal/lang/typecheck"
)

// Lower maps a checked qm program to its feed-forward network and query
// binding. The registry is keyed by program name, so query-instrumented
// variants (rr_query.buffy declares rr, sp_query.buffy declares sp) lower
// identically to their plain versions.
//
// Soundness notes per topology live with each lowering; the shared rules:
//
//   - An unshaped input buffer receiving at most A packets per step has
//     arrival curve gamma_{A,A}: A*k + A over any window of k steps, with
//     the +A absorbing the instantaneous batch at a step boundary.
//   - A credit regulator (gain R per step, cap B, spend on release) releases
//     at most B + R*k packets in any k-step window: curve gamma_{R,B}.
//   - Buffer drops only discard traffic, which never increases a backlog or
//     delay witness, so bounds for the lossless fluid network dominate the
//     capacity-clamped discrete system.
func Lower(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	f, ok := lowerings[info.Prog.Name]
	if !ok {
		return nil, QuerySpec{}, fmt.Errorf(
			"netcalc: no bound lowering for program %q (supported: delay, drr, rr, shaper, sp, sptandem, tbrl)",
			info.Prog.Name)
	}
	// The arrival bound the SMT backend would encode for the same options.
	b := info.ResolveBounds(typecheck.Bounds{ArrivalsPerStep: opts.ArrivalsPerStep}, 1, opts.Params)
	opts.ArrivalsPerStep = b.ArrivalsPerStep
	return f(info, opts)
}

type lowering func(*typecheck.Info, Options) (*Network, QuerySpec, error)

var lowerings = map[string]lowering{
	"tbrl":     lowerTBRL,
	"sptandem": lowerSPTandem,
	"shaper":   lowerShaper,
	"delay":    lowerDelay,
	"sp":       lowerSP,
	"rr":       lowerRR,
	"drr":      lowerDRR,
}

func (o Options) param(prog, name string) (int64, error) {
	v, ok := o.Params[name]
	if !ok {
		return 0, missingParam(prog, name)
	}
	return v, nil
}

// hasMonitor reports whether the program declares a monitor of that name —
// lowerings use it to bind a departure clock when the query variant of a
// model provides one.
func hasMonitor(info *typecheck.Info, name string) bool {
	for _, d := range info.Prog.Decls {
		if d.Storage == ast.Monitor && d.Name == name {
			return true
		}
	}
	return false
}

// lowerTBRL: token-bucket regulator (RATE, BURST) feeding a constant-rate
// server of C packets per step. The measured flow is the regulated release
// process, so its arrival curve is the regulator's shaping curve and the
// path is the single queue q.
func lowerTBRL(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	rate, err := opts.param("tbrl", "RATE")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	burst, err := opts.param("tbrl", "BURST")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	c, err := opts.param("tbrl", "C")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	net := &Network{
		Servers: []*Server{{Name: "srv", Beta: RateLatency(ratI(c), ratI(0)), Mux: MuxAggregate}},
		Flows:   []*Flow{{Name: "f", Alpha: TokenBucket(ratI(rate), ratI(burst)), Path: []string{"srv"}}},
	}
	return net, QuerySpec{Victim: "f", PathBuffers: []string{"q"}, DepartureVar: "dep"}, nil
}

// lowerSPTandem: two rate-C strict-priority hops; a shaped high-priority
// cross flow (RH, BH) preempts the victim (RV, BV) at each hop. The victim
// crosses both hops — the topology where SFA's pay-bursts-only-once beats
// hop-by-hop TFA.
func lowerSPTandem(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	var vals [5]int64
	for i, name := range []string{"RH", "BH", "RV", "BV", "C"} {
		v, err := opts.param("sptandem", name)
		if err != nil {
			return nil, QuerySpec{}, err
		}
		vals[i] = v
	}
	rh, bh, rv, bv, c := vals[0], vals[1], vals[2], vals[3], vals[4]
	net := &Network{
		Servers: []*Server{
			{Name: "hop1", Beta: RateLatency(ratI(c), ratI(0)), Mux: MuxPriority,
				Prio: map[string]int{"h1": 0, "v": 1}},
			{Name: "hop2", Beta: RateLatency(ratI(c), ratI(0)), Mux: MuxPriority,
				Prio: map[string]int{"h2": 0, "v": 1}},
		},
		Flows: []*Flow{
			{Name: "h1", Alpha: TokenBucket(ratI(rh), ratI(bh)), Path: []string{"hop1"}},
			{Name: "h2", Alpha: TokenBucket(ratI(rh), ratI(bh)), Path: []string{"hop2"}},
			{Name: "v", Alpha: TokenBucket(ratI(rv), ratI(bv)), Path: []string{"hop1", "hop2"}},
		},
	}
	return net, QuerySpec{
		Victim: "v", PathBuffers: []string{"vq1", "vq2"}, DepartureVar: "vdep",
	}, nil
}

// lowerShaper: the greedy token-bucket shaper guarantees at least
// min(RATE, BURST) units of service every step once backlogged (post-refill
// credit never drops below that), i.e. the rate-latency curve
// beta_{min(RATE,BURST), 0}. Byte-granularity packet blocking is absorbed
// by analyzing at MaxBytes = 1 (unit packets), which the corpus pins.
func lowerShaper(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	rate, err := opts.param("shaper", "RATE")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	burst, err := opts.param("shaper", "BURST")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	guaranteed := rate
	if burst < guaranteed {
		guaranteed = burst
	}
	a := int64(opts.ArrivalsPerStep)
	net := &Network{
		Servers: []*Server{{Name: "shp", Beta: RateLatency(ratI(guaranteed), ratI(0)), Mux: MuxAggregate}},
		Flows:   []*Flow{{Name: "f", Alpha: TokenBucket(ratI(a), ratI(a)), Path: []string{"shp"}}},
	}
	return net, QuerySpec{Victim: "f", PathBuffers: []string{"sin"}, DepartureSink: "sout"}, nil
}

// lowerDelay: the fixed-delay stage forwards everything within the step —
// service curve delta_1 (delay at most one step, no backlog carried over).
func lowerDelay(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	a := int64(opts.ArrivalsPerStep)
	net := &Network{
		Servers: []*Server{{Name: "d", Beta: Delay(ratI(1)), Mux: MuxAggregate}},
		Flows:   []*Flow{{Name: "f", Alpha: TokenBucket(ratI(a), ratI(a)), Path: []string{"d"}}},
	}
	return net, QuerySpec{Victim: "f", PathBuffers: []string{"din"}, DepartureSink: "dout"}, nil
}

// queueFlows builds one gamma_{A,A} flow per input queue of an N-queue
// scheduler, named q0..q(N-1), all crossing server s.
func queueFlows(n, a int64) []*Flow {
	var flows []*Flow
	for i := int64(0); i < n; i++ {
		flows = append(flows, &Flow{
			Name:  fmt.Sprintf("q%d", i),
			Alpha: TokenBucket(ratI(a), ratI(a)),
			Path:  []string{"s"},
		})
	}
	return flows
}

// starvationSpec is the shared query binding for the N-queue schedulers:
// the starvation victim is queue 1 (matching the rr/sp/fq query sources),
// with the cdeq1 monitor as the departure clock when the query variant
// declares it.
func starvationSpec(info *typecheck.Info) QuerySpec {
	spec := QuerySpec{Victim: "q1", PathBuffers: []string{"ibs[1]"}}
	if hasMonitor(info, "cdeq1") {
		spec.DepartureVar = "cdeq1"
	}
	return spec
}

// lowerSP: strict priority over N queues at one departure per step. Queue
// i's residual subtracts all higher-or-equal-priority arrival curves; with
// every queue able to sustain one packet per step, any queue below the top
// is honestly unbounded — strict priority offers it no guarantee.
func lowerSP(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	n, err := opts.param("sp", "N")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	prio := map[string]int{}
	for i := int64(0); i < n; i++ {
		prio[fmt.Sprintf("q%d", i)] = int(i)
	}
	net := &Network{
		Servers: []*Server{{Name: "s", Beta: RateLatency(ratI(1), ratI(0)), Mux: MuxPriority, Prio: prio}},
		Flows:   queueFlows(n, int64(opts.ArrivalsPerStep)),
	}
	return net, starvationSpec(info), nil
}

// lowerRR: round-robin over N queues guarantees each queue the
// latency-rate curve beta_{1/N, N-1}: in any backlogged stretch a queue
// waits at most N-1 steps for its slot and then gets every N-th step.
func lowerRR(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	n, err := opts.param("rr", "N")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	guaranteed := map[string]Curve{}
	for i := int64(0); i < n; i++ {
		guaranteed[fmt.Sprintf("q%d", i)] = RateLatency(big.NewRat(1, n), ratI(n-1))
	}
	net := &Network{
		Servers: []*Server{{Name: "s", Beta: RateLatency(ratI(1), ratI(0)), Mux: MuxGuaranteed, Guaranteed: guaranteed}},
		Flows:   queueFlows(n, int64(opts.ArrivalsPerStep)),
	}
	return net, starvationSpec(info), nil
}

// lowerDRR: deficit round robin with quantum Q over N queues guarantees
// each queue rate Q/(N*Q) = 1/N with latency at most (N-1)*(Q+1) steps (a
// full rotation of the other queues' quanta plus their idle turns).
func lowerDRR(info *typecheck.Info, opts Options) (*Network, QuerySpec, error) {
	n, err := opts.param("drr", "N")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	q, err := opts.param("drr", "Q")
	if err != nil {
		return nil, QuerySpec{}, err
	}
	guaranteed := map[string]Curve{}
	for i := int64(0); i < n; i++ {
		guaranteed[fmt.Sprintf("q%d", i)] = RateLatency(big.NewRat(1, n), ratI((n-1)*(q+1)))
	}
	net := &Network{
		Servers: []*Server{{Name: "s", Beta: RateLatency(ratI(1), ratI(0)), Mux: MuxGuaranteed, Guaranteed: guaranteed}},
		Flows:   queueFlows(n, int64(opts.ArrivalsPerStep)),
	}
	return net, starvationSpec(info), nil
}
