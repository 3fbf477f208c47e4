package netcalc

import (
	"fmt"
	"math/big"
)

// Mux says how a server arbitrates between the flows that cross it; it
// decides which residual service curve each flow sees.
type Mux int

const (
	// MuxAggregate: FIFO aggregation — all flows share the full service
	// curve and per-flow delay is bounded by the aggregate's delay.
	MuxAggregate Mux = iota
	// MuxPriority: strict priority — a flow's residual service is the
	// server's curve minus the arrival curves of all higher-or-equal
	// priority competitors (blind multiplexing within a priority class).
	MuxPriority
	// MuxGuaranteed: the server dedicates an explicit per-flow service
	// curve (round-robin and DRR latency-rate guarantees).
	MuxGuaranteed
)

// Server is one service element of a feed-forward network.
type Server struct {
	Name string
	Beta Curve
	Mux  Mux
	// Prio maps flow name -> priority for MuxPriority; lower is served
	// first.
	Prio map[string]int
	// Guaranteed maps flow name -> dedicated service curve for
	// MuxGuaranteed.
	Guaranteed map[string]Curve
}

// Flow is a traffic class with a token-bucket-style arrival curve entering
// the network at the first server of its path.
type Flow struct {
	Name  string
	Alpha Curve
	Path  []string // server names, in traversal order
}

// Network is a feed-forward composition of servers and flows.
type Network struct {
	Servers []*Server
	Flows   []*Flow

	// ops counts the curve operations (sums, differences, convolutions,
	// deviations, output curves) the last Analyze ran: its work, which
	// depends on the network alone.
	ops int64
}

// Ops returns the curve operations the last Analyze ran.
func (n *Network) Ops() int64 { return n.ops }

func (n *Network) server(name string) *Server {
	for _, s := range n.Servers {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// MethodBounds is one analysis method's answer for one flow.
type MethodBounds struct {
	Bounded bool
	Delay   *big.Rat // end-to-end delay bound (steps), valid when Bounded
	Backlog *big.Rat // total in-flight backlog bound (packets), valid when Bounded
}

// FlowBounds carries both traversals' answers plus the per-flow best.
type FlowBounds struct {
	Flow     string
	TFA, SFA MethodBounds
	// Best is the pointwise minimum of the bounded methods.
	Best MethodBounds
}

// String renders one method's answer, e.g. "delay<=13/5 backlog<=7".
func (m MethodBounds) String() string {
	if !m.Bounded {
		return "unbounded"
	}
	return fmt.Sprintf("delay<=%s backlog<=%s", m.Delay.RatString(), m.Backlog.RatString())
}

// String renders the flow's answers from both traversals.
func (fb FlowBounds) String() string {
	return fmt.Sprintf("tfa[%s] sfa[%s] best[%s]", fb.TFA, fb.SFA, fb.Best)
}

// Analyze runs both traversals over a feed-forward network and returns
// per-flow bounds. An error means the network itself is malformed (unknown
// server in a path, cyclic topology); an unbounded flow is not an error —
// it is reported as !Bounded.
func (n *Network) Analyze() ([]FlowBounds, error) {
	n.ops = 0
	order, err := n.topoOrder()
	if err != nil {
		return nil, err
	}
	alphas, perHop, err := n.tfaPropagate(order)
	if err != nil {
		return nil, err
	}
	var out []FlowBounds
	for _, f := range n.Flows {
		fb := FlowBounds{Flow: f.Name}
		fb.TFA = tfaBounds(f, perHop)
		fb.SFA = n.sfaBounds(f, alphas)
		fb.Best = bestOf(fb.TFA, fb.SFA)
		out = append(out, fb)
	}
	return out, nil
}

func bestOf(a, b MethodBounds) MethodBounds {
	if !a.Bounded {
		return b
	}
	if !b.Bounded {
		return a
	}
	best := MethodBounds{Bounded: true, Delay: a.Delay, Backlog: a.Backlog}
	if b.Delay.Cmp(best.Delay) < 0 {
		best.Delay = b.Delay
	}
	if b.Backlog.Cmp(best.Backlog) < 0 {
		best.Backlog = b.Backlog
	}
	return best
}

// topoOrder orders servers so that every flow traverses them left to right
// (Kahn's algorithm over consecutive-hop edges). A cycle is an error: TFA
// and SFA as implemented here require feed-forward topologies.
func (n *Network) topoOrder() ([]*Server, error) {
	indeg := make(map[string]int, len(n.Servers))
	succ := make(map[string][]string)
	for _, s := range n.Servers {
		indeg[s.Name] = 0
	}
	for _, f := range n.Flows {
		for i, h := range f.Path {
			if n.server(h) == nil {
				return nil, fmt.Errorf("netcalc: flow %q crosses unknown server %q", f.Name, h)
			}
			if i > 0 {
				succ[f.Path[i-1]] = append(succ[f.Path[i-1]], h)
				indeg[h]++
			}
		}
	}
	var order []*Server
	var ready []string
	for _, s := range n.Servers {
		if indeg[s.Name] == 0 {
			ready = append(ready, s.Name)
		}
	}
	for len(ready) > 0 {
		h := ready[0]
		ready = ready[1:]
		order = append(order, n.server(h))
		for _, nx := range succ[h] {
			if indeg[nx]--; indeg[nx] == 0 {
				ready = append(ready, nx)
			}
		}
	}
	if len(order) != len(n.Servers) {
		return nil, fmt.Errorf("netcalc: cyclic topology (feed-forward required)")
	}
	return order, nil
}

// hopKey identifies a (flow, server) hop.
type hopKey struct{ flow, server string }

// hopBounds is a flow's per-hop TFA result.
type hopBounds struct {
	bounded bool
	delay   *big.Rat // delay bound through this hop
	backlog *big.Rat // this flow's backlog bound inside this hop
}

// tfaPropagate walks the servers in topological order, computing each
// flow's arrival curve at each hop (the TFA output-propagation rule:
// alpha' (t) = alpha(t + d_hop)) and the per-hop delay/backlog bounds.
//
// It returns the per-hop arrival curves (used by SFA for cross traffic)
// and the per-hop bounds (used for the TFA totals). An unbounded hop stops
// propagation for the flows it carries: their curves at later hops are
// absent and every flow through those hops reports unbounded.
func (n *Network) tfaPropagate(order []*Server) (map[hopKey]Curve, map[hopKey]hopBounds, error) {
	alphas := make(map[hopKey]Curve)
	perHop := make(map[hopKey]hopBounds)
	// hopIndex[flow][server] = position of server in the flow's path.
	hopIndex := make(map[string]map[string]int)
	for _, f := range n.Flows {
		hopIndex[f.Name] = make(map[string]int)
		for i, h := range f.Path {
			hopIndex[f.Name][h] = i
		}
		if len(f.Path) > 0 {
			alphas[hopKey{f.Name, f.Path[0]}] = f.Alpha
		}
	}
	for _, s := range order {
		// Flows crossing this server with a known arrival curve.
		type crossing struct {
			f     *Flow
			alpha Curve
		}
		var here []crossing
		for _, f := range n.Flows {
			if _, ok := hopIndex[f.Name][s.Name]; !ok {
				continue
			}
			a, ok := alphas[hopKey{f.Name, s.Name}]
			if !ok {
				continue // upstream hop was unbounded; flow already poisoned
			}
			here = append(here, crossing{f, a})
		}
		if len(here) == 0 {
			continue
		}
		// Aggregate delay (FIFO) is shared; residual-based muxes get
		// per-flow delays.
		var aggDelay *big.Rat
		aggBounded := true
		if s.Mux == MuxAggregate {
			agg := here[0].alpha
			for _, c := range here[1:] {
				agg = Add(agg, c.alpha)
			}
			aggDelay, aggBounded = HDev(agg, s.Beta)
			n.ops += int64(len(here))
		}
		for _, c := range here {
			hb := hopBounds{}
			switch s.Mux {
			case MuxAggregate:
				if aggBounded {
					// Per-flow backlog under FIFO: every packet of the flow
					// has been in the hop for at most the aggregate delay.
					if v, ok := c.alpha.Eval(aggDelay); ok {
						hb = hopBounds{bounded: true, delay: aggDelay, backlog: v}
					}
				}
			case MuxPriority, MuxGuaranteed:
				resid, ok := n.residual(s, c.f, alphas)
				if ok {
					d, okD := HDev(c.alpha, resid)
					q, okQ := VDev(c.alpha, resid)
					n.ops += 2
					if okD && okQ {
						hb = hopBounds{bounded: true, delay: d, backlog: q}
					}
				}
			}
			perHop[hopKey{c.f.Name, s.Name}] = hb
			// Propagate to the flow's next hop.
			i := hopIndex[c.f.Name][s.Name]
			if hb.bounded && i+1 < len(c.f.Path) {
				alphas[hopKey{c.f.Name, c.f.Path[i+1]}] = c.alpha.DelayedOutput(hb.delay)
				n.ops++
			}
		}
	}
	return alphas, perHop, nil
}

// residual returns the service curve flow f sees at server s, given every
// flow's arrival curve at that hop. ok is false when a competitor's curve
// is unknown (poisoned upstream) or the mux has no guarantee for f.
//
// Both MuxAggregate and MuxPriority use the blind-multiplexing residual
// [beta - alpha_cross]^+, which is valid under any work-conserving
// arbitration: for aggregate servers the competitors are all other flows
// at the server, for priority servers those at a priority at or above f's
// (equal priority stays conservative — no FIFO assumption within a class).
func (n *Network) residual(s *Server, f *Flow, alphas map[hopKey]Curve) (Curve, bool) {
	if s.Mux == MuxGuaranteed {
		g, ok := s.Guaranteed[f.Name]
		return g, ok
	}
	myPrio := 0
	if s.Mux == MuxPriority {
		p, ok := s.Prio[f.Name]
		if !ok {
			return Curve{}, false
		}
		myPrio = p
	}
	var cross *Curve
	for _, g := range n.Flows {
		if g.Name == f.Name {
			continue
		}
		if !crossesServer(g, s.Name) {
			continue
		}
		if s.Mux == MuxPriority {
			p, competes := s.Prio[g.Name]
			if !competes || p > myPrio {
				continue
			}
		}
		a, known := alphas[hopKey{g.Name, s.Name}]
		if !known {
			return Curve{}, false
		}
		if cross == nil {
			c := a
			cross = &c
		} else {
			c := Add(*cross, a)
			cross = &c
			n.ops++
		}
	}
	if cross == nil {
		return s.Beta, true
	}
	n.ops += 2
	return MaxZero(Sub(s.Beta, *cross)), true
}

func crossesServer(f *Flow, server string) bool {
	for _, h := range f.Path {
		if h == server {
			return true
		}
	}
	return false
}

// tfaBounds sums a flow's per-hop bounds along its path.
func tfaBounds(f *Flow, perHop map[hopKey]hopBounds) MethodBounds {
	delay := new(big.Rat)
	backlog := new(big.Rat)
	for _, h := range f.Path {
		hb := perHop[hopKey{f.Name, h}]
		if !hb.bounded {
			return MethodBounds{}
		}
		delay.Add(delay, hb.delay)
		backlog.Add(backlog, hb.backlog)
	}
	return MethodBounds{Bounded: true, Delay: delay, Backlog: backlog}
}

// sfaBounds computes the flow's end-to-end service curve — the (min,+)
// convolution of its per-hop residuals — and takes a single deviation
// against the flow's ingress arrival curve. Compared to TFA this pays the
// flow's burst only once, which is what makes SFA tighter on tandems.
func (n *Network) sfaBounds(f *Flow, alphas map[hopKey]Curve) MethodBounds {
	if len(f.Path) == 0 {
		return MethodBounds{Bounded: true, Delay: new(big.Rat), Backlog: new(big.Rat)}
	}
	var e2e *Curve
	for _, h := range f.Path {
		s := n.server(h)
		resid, ok := n.residual(s, f, alphas)
		if !ok {
			return MethodBounds{}
		}
		if e2e == nil {
			e2e = &resid
		} else {
			c := ConvolveConvex(*e2e, resid)
			e2e = &c
			n.ops++
		}
	}
	d, okD := HDev(f.Alpha, *e2e)
	q, okQ := VDev(f.Alpha, *e2e)
	n.ops += 2
	if !okD || !okQ {
		return MethodBounds{}
	}
	return MethodBounds{Bounded: true, Delay: d, Backlog: q}
}
