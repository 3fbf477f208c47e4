// Byte-granularity analysis: a token-bucket traffic shaper modeled with
// move-b/backlog-b. The solver proves the shaper's output envelope
// (bytes out ≤ RATE·t + BURST) over all traffic and packet sizes, finds a
// maximal-burst witness, and the same model runs concretely under a
// bursty workload.
//
//	go run ./examples/shaper
package main

import (
	"fmt"
	"log"

	"buffy/internal/backend/smtbe"
	"buffy/internal/core"
	"buffy/internal/interp"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
)

func main() {
	prog, err := core.Parse(qm.ShaperSrc)
	if err != nil {
		log.Fatal(err)
	}
	a := core.Analysis{
		T: 4, Params: map[string]int64{"RATE": 2, "BURST": 3},
		Bounds: typecheck.Bounds{MaxBytes: 3, ArrivalsPerStep: 2},
	}

	// --- The envelope holds on every execution (all arrival patterns, all
	// packet sizes in 1..3 bytes).
	res, err := prog.Verify(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shaper envelope (out ≤ RATE·t + BURST): %v over %d steps (%v, %d clauses)\n",
		res.Status, a.T, res.Duration.Round(1000000), res.NumClauses)
	if res.Status != smtbe.Holds {
		log.Fatalf("unexpected: %v", res.Status)
	}

	// --- Concrete simulation: an oversized head blocks the FIFO until
	// enough credit accumulates (move-b's prefix semantics).
	m, err := prog.Simulate(core.Analysis{
		T: 4, Params: map[string]int64{"RATE": 2, "BURST": 3},
	}, func(step int, input string) []interp.Packet {
		if step == 0 {
			return []interp.Packet{
				{Fields: []int64{0}, Bytes: 3}, // 3-byte packet: waits for credit
				{Fields: []int64{0}, Bytes: 1},
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation: after 4 steps, %d bytes shaped through, %d packets still queued\n",
		m.Buffer("sout").BacklogB(), m.Buffer("sin").BacklogP())
	if fails := m.Failures(); len(fails) > 0 {
		log.Fatalf("assert failures: %v", fails)
	}
	fmt.Println("all shaper asserts held concretely")
}
