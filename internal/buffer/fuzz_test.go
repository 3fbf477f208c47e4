package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"buffy/internal/smt/solver"
	"buffy/internal/smt/term"
)

// refPkt is a reference packet: two field values and a byte size.
type refPkt struct {
	f     [2]int64
	bytes int64
}

// refBuffer is an obviously-correct slice-based reference implementation
// of the list model's semantics (FIFO, capacity drops, filtered prefix
// moves, byte-budget moves). A buffer with one field keeps only field 0:
// a packet entering it loses field 1, which reads as 0 when it moves on.
type refBuffer struct {
	cap     int
	fields  int
	pkts    []refPkt
	dropped int64
}

func (r *refBuffer) arrive(p refPkt) {
	if len(r.pkts) >= r.cap {
		r.dropped++
		return
	}
	r.pkts = append(r.pkts, p)
}

// accept appends a moved packet, dropping it past capacity.
func (r *refBuffer) accept(p refPkt) {
	if r.fields < 2 {
		p.f[1] = 0
	}
	r.arrive(p)
}

func (r *refBuffer) backlogP() int64 { return int64(len(r.pkts)) }

func (r *refBuffer) backlogB() int64 {
	var n int64
	for _, p := range r.pkts {
		n += p.bytes
	}
	return n
}

func (r *refBuffer) filterP(field int, v int64) int64 {
	var n int64
	for _, p := range r.pkts {
		if p.f[field] == v {
			n++
		}
	}
	return n
}

// moveP moves the first n packets matching (field 0 == flow, or any when
// flow<0) to d.
func (r *refBuffer) moveP(d *refBuffer, n int64, flow int64) {
	var kept []refPkt
	for _, p := range r.pkts {
		if n > 0 && (flow < 0 || p.f[0] == flow) {
			n--
			d.accept(p)
		} else {
			kept = append(kept, p)
		}
	}
	r.pkts = kept
}

// moveB moves the maximal matching prefix whose cumulative bytes fit in n.
func (r *refBuffer) moveB(d *refBuffer, n int64, flow int64) {
	var kept []refPkt
	var cum int64
	for _, p := range r.pkts {
		match := flow < 0 || p.f[0] == flow
		if match {
			cum += p.bytes
		}
		if match && cum <= n {
			d.accept(p)
		} else {
			kept = append(kept, p)
		}
	}
	r.pkts = kept
}

// TestListModelAgainstReference drives random op sequences through the
// symbolic list model (with concrete operands, so terms fold) and the
// reference implementation, comparing all observables after every op.
// A and B carry two fields and C one, and packets move between every
// ordered pair: C -> A is the path that zero-fills a field the source
// lacks, A -> C the one that drops it.
func TestListModelAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 40; iter++ {
		sv := solver.New(solver.Options{})
		c := &Ctx{B: sv.Builder(), Assume: sv.Assert, Prefix: "fuzz"}
		b := sv.Builder()
		var syms []State
		var refs []*refBuffer
		for _, nf := range []int{2, 2, 1} {
			capX := 2 + rng.Intn(5)
			syms = append(syms, ListModel{}.Empty(c, Config{Cap: capX, NumFields: nf, MaxBytes: 4}))
			refs = append(refs, &refBuffer{cap: capX, fields: nf})
		}

		check := func(opIdx int, op string) {
			t.Helper()
			for x, sym := range syms {
				ref, nm := refs[x], string(rune('A'+x))
				if got := sym.BacklogP(c); got.Kind() != term.KindIntConst || got.IntVal() != ref.backlogP() {
					t.Fatalf("iter %d op %d (%s): backlogP(%s) = %s, want %d", iter, opIdx, op, nm, got, ref.backlogP())
				}
				if got := sym.BacklogB(c); got.IntVal() != ref.backlogB() {
					t.Fatalf("iter %d op %d (%s): backlogB(%s) = %s, want %d", iter, opIdx, op, nm, got, ref.backlogB())
				}
				for field := 0; field < ref.fields; field++ {
					for v := int64(0); v < 3; v++ {
						got, err := sym.FilterBacklogP(c, Filter{Field: field, Value: b.IntConst(v)})
						if err != nil {
							t.Fatal(err)
						}
						if got.IntVal() != ref.filterP(field, v) {
							t.Fatalf("iter %d op %d (%s): filter(%s, f%d == %d) = %s, want %d",
								iter, opIdx, op, nm, field, v, got, ref.filterP(field, v))
						}
					}
				}
				if got := sym.Dropped(); got.IntVal() != ref.dropped {
					t.Fatalf("iter %d op %d (%s): dropped(%s) = %s, want %d", iter, opIdx, op, nm, got, ref.dropped)
				}
			}
		}

		for opIdx := 0; opIdx < 25; opIdx++ {
			// src != dst, uniformly over the six ordered pairs.
			src := rng.Intn(3)
			dst := (src + 1 + rng.Intn(2)) % 3
			var f *Filter
			flow := int64(rng.Intn(4)) - 1 // -1 = unfiltered
			if flow >= 0 {
				f = &Filter{Field: 0, Value: b.IntConst(flow)}
			}
			op := fmt.Sprintf("%c->%c", 'A'+src, 'A'+dst)
			switch rng.Intn(4) {
			case 0, 1: // arrive at src
				op = fmt.Sprintf("arrive %c", 'A'+src)
				p := refPkt{f: [2]int64{int64(rng.Intn(3)), int64(rng.Intn(3))}, bytes: int64(1 + rng.Intn(3))}
				if refs[src].fields < 2 {
					p.f[1] = 0
				}
				fields := []*term.Term{b.IntConst(p.f[0]), b.IntConst(p.f[1])}
				syms[src].Arrive(c, Packet{Fields: fields[:refs[src].fields], Bytes: b.IntConst(p.bytes)}, b.True())
				refs[src].arrive(p)
			case 2: // move-p, possibly filtered
				op = "move-p " + op
				n := int64(rng.Intn(4))
				if err := syms[src].MoveP(c, syms[dst], b.IntConst(n), f, b.True()); err != nil {
					t.Fatal(err)
				}
				refs[src].moveP(refs[dst], n, flow)
			case 3: // move-b, possibly filtered
				op = "move-b " + op
				n := int64(rng.Intn(6))
				if err := syms[src].MoveB(c, syms[dst], b.IntConst(n), f, b.True()); err != nil {
					t.Fatal(err)
				}
				refs[src].moveB(refs[dst], n, flow)
			}
			check(opIdx, op)
		}
	}
}

// TestCountModelConservation: under random guarded ops with symbolic
// guards, packets are conserved (arrivals = in-buffers + dropped).
func TestCountModelConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		sv := solver.New(solver.Options{})
		b := sv.Builder()
		c := &Ctx{B: b, Assume: sv.Assert, Prefix: "cc"}
		a := CountModel{}.Empty(c, Config{Cap: 3})
		d := CountModel{}.Empty(c, Config{Cap: 2})
		arrivals := b.IntConst(0)
		for op := 0; op < 8; op++ {
			guard := b.Var(fmt.Sprintf("g%d_%d", iter, op), term.Bool)
			if rng.Intn(2) == 0 {
				a.Arrive(c, Packet{Fields: []*term.Term{b.IntConst(0)}}, guard)
				// Count attempted arrivals that were admitted or dropped.
				arrivals = b.Add(arrivals, b.Ite(guard, b.IntConst(1), b.IntConst(0)))
			} else {
				if err := a.MoveP(c, d, b.IntConst(int64(rng.Intn(3))), nil, guard); err != nil {
					t.Fatal(err)
				}
			}
		}
		total := b.Add(a.BacklogP(c), d.BacklogP(c), a.Dropped(), d.Dropped())
		sv.Assert(b.Neq(total, arrivals))
		if got := sv.Check(); got != solver.Unsat {
			t.Fatalf("iter %d: conservation violated (%v)", iter, got)
		}
	}
}
