// Buffer-model precision (§3): the same Buffy program analyzed at three
// abstraction levels without changing a line of it — the paper's central
// "plug-in buffer models" flexibility — plus the packet-ordering example
// that separates the levels, and the induction capability that abstraction
// enables.
//
//	go run ./examples/precision
package main

import (
	"context"
	"fmt"
	"log"

	"buffy/internal/backend/smtbe"
	"buffy/internal/buffer"
	"buffy/internal/core"
	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

func main() {
	// --- One program, three precision levels.
	fmt.Println("round-robin starvation query, identical program, three buffer models:")
	for _, model := range []string{"count", "multiclass", "list"} {
		prog, err := core.Parse(qm.RRQuerySrc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := prog.Check(context.Background(), core.Analysis{
			T: 6, Params: map[string]int64{"N": 2}, Model: model,
		}, smtbe.Witness)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s  %-11v  %8v  %7d clauses\n",
			model, res.Status, res.Duration.Round(1000000), res.NumClauses)
	}

	// --- The §3 ordering example: [1,1,1,2,2,2] and [1,2,1,2,1,2] have
	// identical per-flow counts; only an order-tracking model can tell
	// which packets depart first.
	sv := solver.New(solver.Options{})
	b := sv.Builder()
	ctx := &buffer.Ctx{B: b, Assume: sv.Assert, Prefix: "ord"}
	departFlow2 := func(seq []int64) *term.Term {
		src := buffer.ListModel{}.Empty(ctx, buffer.Config{Cap: 6})
		for _, f := range seq {
			src.Arrive(ctx, buffer.Packet{Fields: []*term.Term{b.IntConst(f)}, Bytes: b.IntConst(1)}, b.True())
		}
		sink := buffer.ListModel{}.Empty(ctx, buffer.Config{Cap: 6})
		if err := src.MoveP(ctx, sink, b.IntConst(2), nil, b.True()); err != nil {
			log.Fatal(err)
		}
		n, err := sink.FilterBacklog(ctx, []buffer.Filter{{Field: 0, Value: b.IntConst(2)}}, false)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	a := departFlow2([]int64{1, 1, 1, 2, 2, 2})
	c := departFlow2([]int64{1, 2, 1, 2, 1, 2})
	fmt.Printf("\nordering example — flow-2 packets among the first 2 departures:\n")
	fmt.Printf("  [1,1,1,2,2,2] -> %s     [1,2,1,2,1,2] -> %s   (equal counts, different behaviour)\n", a, c)

	// --- What abstraction buys: with the count model the path server's
	// token bound proves by 1-induction for EVERY horizon.
	prog, err := core.Parse(qm.PathServerSrc)
	if err != nil {
		log.Fatal(err)
	}
	bound := func(m *ir.Machine, ctx *buffer.Ctx) *term.Term {
		bb := ctx.B
		return bb.Le(m.Var("tokens"), bb.IntConst(4))
	}
	res, err := prog.ProveForAllHorizons(context.Background(), core.Analysis{
		Params: map[string]int64{"C": 2, "B": 2}, Model: "count",
	}, bound)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntokens <= C+B for all horizons (count model, 1-induction): proved=%v in %v\n",
		res.Proved, res.Duration.Round(100000))
}
