// The paper's §6.2 case study: compose three independent Buffy programs —
// an AIMD congestion controller, CCAC's nondeterministic token-bucket path
// server, and a fixed-delay server — by connecting their buffers (Figure
// 7), then ask the solver whether the composed system can lose packets
// (the ack-burst scenario) and whether the token bucket's throughput
// guarantee holds.
//
//	go run ./examples/ccac-aimd
package main

import (
	"context"
	"fmt"
	"log"

	"buffy/internal/compose"
	"buffy/internal/smt/solver"
)

func main() {
	ctx := context.Background()
	// --- Loss at a shallow bottleneck: the path server may hold back
	// service (tokens accumulate), then release a burst; the returning ack
	// burst makes the window-driven sender overflow the 2-packet queue.
	sv := solver.New(solver.Options{})
	sys, err := compose.BuildCCAC(ctx, sv.Builder(), compose.CCACParams{
		C: 1, B: 1, IW: 2, K: 2, T: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Sys.CheckQuery(ctx, sv, sys.Loss(sv.Builder()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shallow bottleneck (C=1 B=1 K=2, T=8): loss reachable = %v (%v)\n",
		res.Sat, res.Duration.Round(1000000))
	if res.Sat {
		fmt.Printf("  witness: dropped=%d, final cwnd=%d, delivered=%d\n",
			sv.IntValue(sys.Path.Buffers()["pin"].Dropped()),
			sv.IntValue(sys.AIMD.Var("cwnd")),
			sv.IntValue(sys.Delivered()))
	}

	// --- A deep buffer absorbs the same dynamics.
	sv2 := solver.New(solver.Options{})
	sys2, err := compose.BuildCCAC(ctx, sv2.Builder(), compose.CCACParams{
		C: 1, B: 1, IW: 2, K: 20, T: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	res2, err := sys2.Sys.CheckQuery(ctx, sv2, sys2.Loss(sv2.Builder()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deep bottleneck   (C=1 B=1 K=20, T=8): loss reachable = %v (%v)\n",
		res2.Sat, res2.Duration.Round(1000000))

	// --- The token bucket's service guarantee: delivered packets can
	// never exceed C*T + B, whatever the CCA and the nondeterministic
	// server do.
	sv3 := solver.New(solver.Options{})
	const C, B, T = 2, 1, 6
	sys3, err := compose.BuildCCAC(ctx, sv3.Builder(), compose.CCACParams{
		C: C, B: B, IW: 4, K: 20, T: T,
	})
	if err != nil {
		log.Fatal(err)
	}
	b3 := sv3.Builder()
	res3, err := sys3.Sys.CheckQuery(ctx, sv3, b3.Lt(b3.IntConst(C*T+B), sys3.Delivered()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput bound  (delivered > C*T+B = %d): satisfiable = %v — the token bucket holds\n",
		C*T+B, res3.Sat)
}
