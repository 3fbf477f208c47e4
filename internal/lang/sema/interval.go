package sema

// The interval abstract domain. Every abstract value is a closed integer
// interval [lo, hi]; booleans embed as [0,1] with [1,1] = true and
// [0,0] = false. An empty interval (lo > hi) marks an infeasible path.
//
// Soundness against the solver's fixed-width two's-complement semantics:
// the backends evaluate integers modulo 2^W (W = solver bit width), so
// any arithmetic whose exact result could leave [minInt(W), maxInt(W)]
// must not pretend to know the wrapped value. Interval operations
// therefore clamp: a result that cannot be proven to stay inside the
// width's range widens to the full range (top), and conclusions are only
// drawn from intervals the width can represent exactly.

import "math"

type ival struct{ lo, hi int64 }

// tri is three-valued truth.
type tri int

const (
	triUnknown tri = iota
	triTrue
	triFalse
)

func (a ival) empty() bool           { return a.lo > a.hi }
func (a ival) isConst() bool         { return a.lo == a.hi }
func (a ival) contains(v int64) bool { return a.lo <= v && v <= a.hi }

func single(v int64) ival { return ival{v, v} }

func boolIval(t tri) ival {
	switch t {
	case triTrue:
		return single(1)
	case triFalse:
		return single(0)
	}
	return ival{0, 1}
}

func (a ival) truth() tri {
	switch {
	case a.empty():
		return triUnknown
	case a.lo >= 1:
		return triTrue
	case a.hi <= 0:
		return triFalse
	}
	return triUnknown
}

func join(a, b ival) ival {
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	return ival{minI(a.lo, b.lo), maxI(a.hi, b.hi)}
}

func meet(a, b ival) ival {
	return ival{maxI(a.lo, b.lo), minI(a.hi, b.hi)}
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// dom is the value domain for one analysis: the representable range of
// the solver's bit width. All arithmetic routes through it so overflow
// collapses to top instead of producing wrapped nonsense.
type dom struct{ min, max int64 }

func newDom(width int) dom {
	// Mirrors bitblast: W-bit two's complement.
	return dom{min: -(int64(1) << (width - 1)), max: int64(1)<<(width-1) - 1}
}

func (d dom) top() ival { return ival{d.min, d.max} }

// fits reports whether the interval is exactly representable at width.
func (d dom) fits(a ival) bool { return a.lo >= d.min && a.hi <= d.max }

// norm returns a unchanged when representable, else top: a computation
// that may wrap is a computation we know nothing about.
func (d dom) norm(a ival) ival {
	if a.empty() || d.fits(a) {
		return a
	}
	return d.top()
}

// konst embeds a literal; a literal outside the width's range would wrap
// in the solver, so it degrades to top.
func (d dom) konst(v int64) ival { return d.norm(single(v)) }

func (d dom) add(a, b ival) ival {
	if a.empty() || b.empty() {
		return a
	}
	lo, ok1 := addChecked(a.lo, b.lo)
	hi, ok2 := addChecked(a.hi, b.hi)
	if !ok1 || !ok2 {
		return d.top()
	}
	return d.norm(ival{lo, hi})
}

func (d dom) sub(a, b ival) ival {
	if a.empty() || b.empty() {
		return a
	}
	return d.add(a, d.neg(b))
}

func (d dom) neg(a ival) ival {
	if a.empty() {
		return a
	}
	if a.lo == math.MinInt64 || a.hi == math.MinInt64 {
		return d.top()
	}
	return d.norm(ival{-a.hi, -a.lo})
}

func (d dom) mul(a, b ival) ival {
	if a.empty() || b.empty() {
		return a
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			p, ok := mulChecked(x, y)
			if !ok {
				return d.top()
			}
			lo, hi = minI(lo, p), maxI(hi, p)
		}
	}
	return d.norm(ival{lo, hi})
}

// div and mod only fold when both sides are the same constant the
// language's §7 restriction guarantees anyway; everything else is top.
func (d dom) div(a, b ival) ival {
	if a.isConst() && b.isConst() && b.lo != 0 {
		return d.konst(a.lo / b.lo)
	}
	return d.top()
}

func (d dom) mod(a, b ival) ival {
	if a.isConst() && b.isConst() && b.lo != 0 {
		return d.konst(a.lo % b.lo)
	}
	return d.top()
}

// clamp intersects with [lo, hi] — used for quantities with structural
// range guarantees (backlogs in [0, cap], list sizes in [0, cap]).
func (d dom) clamp(a ival, lo, hi int64) ival {
	return meet(a, ival{lo, hi})
}

// Comparisons return three-valued truth over all pairs drawn from the
// operand intervals.

func cmpLt(a, b ival) tri {
	if a.empty() || b.empty() {
		return triUnknown
	}
	if a.hi < b.lo {
		return triTrue
	}
	if a.lo >= b.hi {
		return triFalse
	}
	return triUnknown
}

func cmpLe(a, b ival) tri {
	if a.empty() || b.empty() {
		return triUnknown
	}
	if a.hi <= b.lo {
		return triTrue
	}
	if a.lo > b.hi {
		return triFalse
	}
	return triUnknown
}

func cmpEq(a, b ival) tri {
	if a.empty() || b.empty() {
		return triUnknown
	}
	if a.isConst() && b.isConst() && a.lo == b.lo {
		return triTrue
	}
	if meet(a, b).empty() {
		return triFalse
	}
	return triUnknown
}

func triNot(t tri) tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triUnknown
}

func triAnd(a, b tri) tri {
	if a == triFalse || b == triFalse {
		return triFalse
	}
	if a == triTrue && b == triTrue {
		return triTrue
	}
	return triUnknown
}

func triOr(a, b tri) tri {
	if a == triTrue || b == triTrue {
		return triTrue
	}
	if a == triFalse && b == triFalse {
		return triFalse
	}
	return triUnknown
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
