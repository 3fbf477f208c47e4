package buffer

import (
	"fmt"

	"buffy/internal/smt/term"
)

// ListModel models a buffer as a bounded, ordered list of packets — the
// FPerf precision level. Packet identity, order, per-packet fields and
// per-packet byte sizes are all tracked exactly, or, for the fields and
// sizes Config.Live leaves out, held at 0.
type ListModel struct{}

// Name implements Model.
func (ListModel) Name() string { return "list" }

// listState stores packets in packed slots: all valid slots precede all
// invalid ones, and packets leave from the front (slot 0) in FIFO order.
// A field or the bytes the config does not track are 0 in every slot.
type listState struct {
	cfg     Config
	valid   []*term.Term   // bool per slot
	fields  [][]*term.Term // [slot][field] int
	bytes   []*term.Term   // int per slot
	dropped *term.Term
	cnt     *term.Term // the packet count; nil until built or after valid changes
}

// Empty implements Model.
func (ListModel) Empty(c *Ctx, cfg Config) State {
	cfg = cfg.Normalize()
	s := &listState{cfg: cfg, dropped: c.B.IntConst(0)}
	zero := c.B.IntConst(0)
	for i := 0; i < cfg.Cap; i++ {
		s.valid = append(s.valid, c.B.False())
		fs := make([]*term.Term, cfg.NumFields)
		for f := range fs {
			fs[f] = zero
		}
		s.fields = append(s.fields, fs)
		s.bytes = append(s.bytes, zero)
	}
	return s
}

// Symbolic implements Model: fresh per-slot variables under the packed
// invariant (valid slots form a prefix), unit-or-larger byte sizes on
// valid slots, field values within the class bound, and a non-negative
// drop counter. Untracked fields and sizes stay 0, with no variable.
func (ListModel) Symbolic(c *Ctx, cfg Config, prefix string) State {
	cfg = cfg.Normalize()
	b := c.B
	zero := b.IntConst(0)
	s := &listState{cfg: cfg}
	for i := 0; i < cfg.Cap; i++ {
		v := b.Var(fmt.Sprintf("%s.slot%d.valid", prefix, i), term.Bool)
		s.valid = append(s.valid, v)
		if i > 0 {
			c.Assume(b.Implies(v, s.valid[i-1]))
		}
		fs := make([]*term.Term, cfg.NumFields)
		for f := range fs {
			fs[f] = zero
			if !cfg.tracksField(f) {
				continue
			}
			fv := b.Var(fmt.Sprintf("%s.slot%d.f%d", prefix, i, f), term.Int)
			c.Assume(b.Le(b.IntConst(0), fv))
			c.Assume(b.Lt(fv, b.IntConst(int64(cfg.NumClasses))))
			fs[f] = fv
		}
		s.fields = append(s.fields, fs)
		by := zero
		if cfg.tracksBytes() {
			by = b.Var(fmt.Sprintf("%s.slot%d.bytes", prefix, i), term.Int)
			c.Assume(b.Implies(v, b.Le(b.IntConst(1), by)))
			c.Assume(b.Implies(b.Not(v), b.Eq(by, b.IntConst(0))))
			c.Assume(b.Le(by, b.IntConst(int64(cfg.MaxBytes))))
		}
		s.bytes = append(s.bytes, by)
	}
	d := b.Var(prefix+".dropped", term.Int)
	c.Assume(b.Le(b.IntConst(0), d))
	s.dropped = d
	return s
}

func (s *listState) Model() Model   { return ListModel{} }
func (s *listState) Config() Config { return s.cfg }

func (s *listState) Clone() State {
	out := &listState{cfg: s.cfg, dropped: s.dropped, cnt: s.cnt}
	out.valid = append([]*term.Term(nil), s.valid...)
	out.bytes = append([]*term.Term(nil), s.bytes...)
	for _, fs := range s.fields {
		out.fields = append(out.fields, append([]*term.Term(nil), fs...))
	}
	return out
}

func (s *listState) Dropped() *term.Term { return s.dropped }

func boolToInt(b *term.Builder, t *term.Term) *term.Term {
	return b.Ite(t, b.IntConst(1), b.IntConst(0))
}

// countUp returns the number of the bits bit(0), ..., bit(n-1) that are
// set, building them in order, and, when ranked, the prefix counts:
// ranks[i] counts the set bits before i.
func countUp(b *term.Builder, n int, bit func(i int) *term.Term, ranked bool) (ranks []*term.Term, total *term.Term) {
	if !ranked {
		ints := make([]*term.Term, n)
		for i := range ints {
			ints[i] = boolToInt(b, bit(i))
		}
		return nil, b.Add(ints...)
	}
	ranks = make([]*term.Term, n)
	total = b.IntConst(0)
	for i := range ranks {
		ranks[i] = total
		total = b.Add(total, boolToInt(b, bit(i)))
	}
	return ranks, total
}

// count returns the packet count, built once per set of valid bits: every
// write to s.valid resets s.cnt.
func (s *listState) count(c *Ctx) *term.Term {
	if s.cnt == nil {
		_, s.cnt = countUp(c.B, len(s.valid), func(i int) *term.Term { return s.valid[i] }, false)
	}
	return s.cnt
}

// checkField rejects a filter on a field the state does not hold or track.
func (s *listState) checkField(f int) error {
	if f < 0 || f >= s.cfg.NumFields {
		return fmt.Errorf("buffer: field index %d out of range", f)
	}
	if !s.cfg.tracksField(f) {
		return fmt.Errorf("buffer: field %d is not tracked by this buffer", f)
	}
	return nil
}

// checkBytes rejects a byte view of a state that does not track sizes.
func (s *listState) checkBytes() error {
	if !s.cfg.tracksBytes() {
		return fmt.Errorf("buffer: packet sizes are not tracked by this buffer")
	}
	return nil
}

// BacklogP implements State.
func (s *listState) BacklogP(c *Ctx) *term.Term { return s.count(c) }

// BacklogB implements State. It panics on a state that does not track
// sizes: ir tracks them in every program with a byte view.
func (s *listState) BacklogB(c *Ctx) *term.Term {
	if err := s.checkBytes(); err != nil {
		panic(err)
	}
	terms := make([]*term.Term, len(s.valid))
	for i, v := range s.valid {
		terms[i] = c.B.Ite(v, s.bytes[i], c.B.IntConst(0))
	}
	return c.B.Add(terms...)
}

// matchMask returns, per slot, whether it holds a packet that passes
// every filter in fs.
func (s *listState) matchMask(c *Ctx, fs []Filter) []*term.Term {
	mask := make([]*term.Term, len(s.valid))
	for i := range s.valid {
		m := s.valid[i]
		for _, f := range fs {
			m = c.B.And(m, c.B.Eq(s.fields[i][f.Field], f.Value))
		}
		mask[i] = m
	}
	return mask
}

// chain returns the filter f as a chain, empty when f is nil.
func chain(f *Filter) []Filter {
	if f == nil {
		return nil
	}
	return []Filter{*f}
}

// FilterBacklog implements State: any chain of filters on tracked fields,
// exact at this precision level. It builds every slot's mask before the
// sum.
func (s *listState) FilterBacklog(c *Ctx, fs []Filter, bytes bool) (*term.Term, error) {
	for _, f := range fs {
		if err := s.checkField(f.Field); err != nil {
			return nil, err
		}
	}
	if bytes {
		if err := s.checkBytes(); err != nil {
			return nil, err
		}
	}
	mask := s.matchMask(c, fs)
	terms := make([]*term.Term, len(mask))
	for i, m := range mask {
		if bytes {
			terms[i] = c.B.Ite(m, s.bytes[i], c.B.IntConst(0))
		} else {
			terms[i] = boolToInt(c.B, m)
		}
	}
	return c.B.Add(terms...), nil
}

// lazy is a table of terms filled on first use. Filling it in the order
// the terms would otherwise first be built keeps every term id, and so the
// emitted CNF, the same as rebuilding each term per use and letting the
// builder intern it.
type lazy []*term.Term

func (l lazy) get(i int, build func() *term.Term) *term.Term {
	if l[i] == nil {
		l[i] = build()
	}
	return l[i]
}

func lazyTable(rows, cols int) []lazy {
	t := make([]lazy, rows)
	for r := range t {
		t[r] = make(lazy, cols)
	}
	return t
}

// moveTerms holds what every move builds the same way, whichever way it
// then selects slot values: the counts, the valid bits and the slot
// indices. The pickers read them as the slots are filled.
type moveTerms struct {
	want, wantRank []*term.Term // wantRank[i]: # wanted before i (rank moves only)
	movedCount     *term.Term
	keep, keepRank []*term.Term // keep = valid && !want; keepRank[i]: # kept before i (rank moves only)
	keepCount      *term.Term
	newValid       []*term.Term // receiver slot j after the move
	dCount         *term.Term   // dst backlog before the move
	appIdx         []*term.Term // dst slot j's index into the moved sequence
}

// byteSlot is the field index a picker reads a slot's byte size at.
const byteSlot = -1

// value returns receiver slot i's field f, or its bytes at byteSlot.
func (s *listState) value(i, f int) *term.Term {
	if f == byteSlot {
		return s.bytes[i]
	}
	return s.fields[i][f]
}

// A picker returns what slot j holds after a move in field f (or its bytes
// at byteSlot), as a choice among receiver slot values. It is called slot
// by slot, after the slot's valid bit is built.
type picker func(j, f int) *term.Term

// move moves the packets want marks out of the receiver and appends them,
// in order, to dst. It selects each slot's packet by rank, which works
// for any mask; filtered moves use it.
func (s *listState) move(c *Ctx, dst State, want []*term.Term) error {
	return s.transfer(c, dst, want, true)
}

// movePrefix is move for a mask that is a prefix of the valid slots, as
// every unfiltered move's is: valid slots are packed, and `rank < n` and
// `cum <= n` are both monotone along them (a valid packet has bytes >= 1).
// Then moved slot k is receiver slot k, so the receiver shifts left by
// movedCount and dst slot j takes receiver slot j - dCount.
func (s *listState) movePrefix(c *Ctx, dst State, want []*term.Term) error {
	return s.transfer(c, dst, want, false)
}

// rankPickers selects by rank: receiver slot j takes the kept packet of
// rank j, and dst slot j the moved packet of rank appIdx[j]. Each selector
// depends on fewer indices than the loops that use it, so it sits in a
// lazy table instead of being rebuilt per use.
func (s *listState) rankPickers(c *Ctx, m *moveTerms, nf int) (keepAt, appAt picker) {
	b := c.B
	zero := b.IntConst(0)
	n := len(m.want)
	keepJ, keepHit := -1, lazy(nil) // keepHit[i]: packet i lands in slot keepJ
	keepAt = func(j, f int) *term.Term {
		if j != keepJ {
			keepJ, keepHit = j, make(lazy, n)
		}
		jT := b.IntConst(int64(j))
		out := zero
		for i := n - 1; i >= 0; i-- {
			hit := keepHit.get(i, func() *term.Term { return b.And(m.keep[i], b.Eq(m.keepRank[i], jT)) })
			out = b.Ite(hit, s.value(i, f), out)
		}
		return out
	}
	// moved[f][k] is moved slot k's field f, with bytes at f == nf;
	// movedHit[k][i] says packet i is moved slot k. Neither depends on the
	// dst slot.
	moved := lazyTable(nf+1, n)
	movedHit := lazyTable(n, n)
	selMoved := func(k, f int) *term.Term {
		out := zero
		kT := b.IntConst(int64(k))
		for i := n - 1; i >= 0; i-- {
			hit := movedHit[k].get(i, func() *term.Term { return b.And(m.want[i], b.Eq(m.wantRank[i], kT)) })
			out = b.Ite(hit, s.value(i, f), out)
		}
		return out
	}
	appJ, appHit := -1, lazy(nil) // appHit[k]: moved slot k lands in slot appJ
	appAt = func(j, f int) *term.Term {
		if j != appJ {
			appJ, appHit = j, make(lazy, n)
		}
		row := moved[nf]
		if f != byteSlot {
			row = moved[f]
		}
		out := zero
		for k := n - 1; k >= 0; k-- {
			hit := appHit.get(k, func() *term.Term { return b.Eq(m.appIdx[j], b.IntConst(int64(k))) })
			out = b.Ite(hit, row.get(k, func() *term.Term { return selMoved(k, f) }), out)
		}
		return out
	}
	return keepAt, appAt
}

// shiftPickers selects by shifting, for a prefix mask: receiver slot j
// takes receiver slot j + movedCount, and dst slot j takes receiver slot
// j - dCount. Each shift tests its count against each offset once, shared
// by every slot and field. A kept slot past the new backlog reads 0, as it
// does under rankPickers; an appended slot is only read where it is new.
func (s *listState) shiftPickers(c *Ctx, m *moveTerms) (keepAt, appAt picker) {
	b := c.B
	zero := b.IntConst(0)
	up := shift(b, func() *term.Term { return m.movedCount }, 1, s.cfg.Cap)
	down := shift(b, func() *term.Term { return m.dCount }, -1, s.cfg.Cap)
	keepAt = func(j, f int) *term.Term {
		return b.Ite(m.newValid[j], up(j, func(i int) *term.Term { return s.value(i, f) }), zero)
	}
	appAt = func(j, f int) *term.Term {
		return down(j, func(i int) *term.Term { return s.value(i, f) })
	}
	return keepAt, appAt
}

// shift returns a selector for slot j of source slot j + dir*by, where by
// (read on first use) is a count and the source has n slots. Only the
// offsets that land in the source are tested, the last of them untested,
// so the result is exact wherever j + dir*by lands in [0, n): callers
// read it only there.
func shift(b *term.Builder, by func() *term.Term, dir, n int) func(j int, proj func(i int) *term.Term) *term.Term {
	var eq lazy // eq[v]: by == v
	return func(j int, proj func(i int) *term.Term) *term.Term {
		// Offsets v >= 0 with 0 <= j + dir*v < n, from lo to hi.
		lo, hi := 0, n-1-j
		if dir < 0 {
			lo, hi = max(0, j-n+1), j
		}
		if hi >= len(eq) {
			eq = append(eq, make(lazy, hi+1-len(eq))...)
		}
		out := proj(j + dir*hi)
		for v := hi - 1; v >= lo; v-- {
			hit := eq.get(v, func() *term.Term { return b.Eq(by(), b.IntConst(int64(v))) })
			out = b.Ite(hit, proj(j+dir*v), out)
		}
		return out
	}
}

// transfer builds the parts of a move that do not depend on how slot
// values are selected, and fills the slots by rank (byRank) or by shifts:
// want[i] marks the packets that leave the receiver and are appended, in
// order, to dst. Only rank selection reads the prefix counts, and only
// tracked fields and sizes are selected at all.
func (s *listState) transfer(c *Ctx, dst State, want []*term.Term, byRank bool) error {
	d, ok := dst.(*listState)
	if !ok {
		return fmt.Errorf("buffer: cannot move between %s and %s states", s.Model().Name(), dst.Model().Name())
	}
	if d == s {
		return fmt.Errorf("buffer: move source and destination are the same buffer")
	}
	b := c.B
	zero := b.IntConst(0)
	m := &moveTerms{want: want, appIdx: make([]*term.Term, d.cfg.Cap)}

	// Moved packets, compacted in order: moved slot k holds the k-th
	// wanted packet.
	m.wantRank, m.movedCount = countUp(b, len(want), func(i int) *term.Term { return want[i] }, byRank)

	// Compact the receiver: keep = valid && !want.
	m.keep = make([]*term.Term, len(s.valid))
	m.keepRank, m.keepCount = countUp(b, len(s.valid), func(i int) *term.Term {
		m.keep[i] = b.And(s.valid[i], b.Not(want[i]))
		return m.keep[i]
	}, byRank)
	// Fields dst has but the receiver lacks arrive as zero.
	nf := min(d.cfg.NumFields, s.cfg.NumFields)
	var keepAt, appAt picker
	if byRank {
		keepAt, appAt = s.rankPickers(c, m, nf)
	} else {
		keepAt, appAt = s.shiftPickers(c, m)
	}
	m.newValid = make([]*term.Term, s.cfg.Cap)
	newFields := make([][]*term.Term, s.cfg.Cap)
	newBytes := make([]*term.Term, s.cfg.Cap)
	for j := 0; j < s.cfg.Cap; j++ {
		m.newValid[j] = b.Lt(b.IntConst(int64(j)), m.keepCount)
		fs := make([]*term.Term, s.cfg.NumFields)
		for f := range fs {
			fs[f] = s.fields[j][f]
			if s.cfg.tracksField(f) {
				fs[f] = keepAt(j, f)
			}
		}
		newFields[j] = fs
		newBytes[j] = s.bytes[j]
		if s.cfg.tracksBytes() {
			newBytes[j] = keepAt(j, byteSlot)
		}
	}

	// Append the moved packets to dst (which may be the same shape but a
	// different capacity). Drops happen past dst capacity.
	m.dCount = d.count(c)
	dValid := make([]*term.Term, d.cfg.Cap)
	dFields := make([][]*term.Term, d.cfg.Cap)
	dBytes := make([]*term.Term, d.cfg.Cap)
	for j := 0; j < d.cfg.Cap; j++ {
		jT := b.IntConst(int64(j))
		isOld := b.Lt(jT, m.dCount)
		m.appIdx[j] = b.Sub(jT, m.dCount)
		isNew := b.And(b.Not(isOld), b.Lt(m.appIdx[j], m.movedCount))
		dValid[j] = b.Or(d.valid[j], isNew)
		fs := make([]*term.Term, d.cfg.NumFields)
		for f := range fs {
			fs[f] = d.fields[j][f]
			if !d.cfg.tracksField(f) {
				continue
			}
			app := zero
			if f < nf && s.cfg.tracksField(f) {
				app = appAt(j, f)
			}
			fs[f] = b.Ite(isNew, app, d.fields[j][f])
		}
		dFields[j] = fs
		dBytes[j] = d.bytes[j]
		if d.cfg.tracksBytes() {
			app := zero
			if s.cfg.tracksBytes() {
				app = appAt(j, byteSlot)
			}
			dBytes[j] = b.Ite(isNew, app, d.bytes[j])
		}
	}
	// Packets that did not fit into dst are dropped there.
	overflow := b.Sub(b.Add(m.dCount, m.movedCount), b.IntConst(int64(d.cfg.Cap)))
	overflow = b.Max(overflow, zero)
	d.dropped = b.Add(d.dropped, overflow)

	s.valid, s.fields, s.bytes, s.cnt = m.newValid, newFields, newBytes, nil
	d.valid, d.fields, d.bytes, d.cnt = dValid, dFields, dBytes, nil
	return nil
}

// MoveP implements State: move the first min(n, matched) matching packets.
func (s *listState) MoveP(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	if f != nil {
		if err := s.checkField(f.Field); err != nil {
			return err
		}
	}
	return s.moveMatched(c, dst, s.wantP(c, n, f, g), f)
}

// MoveB implements State: move the maximal matching prefix whose cumulative
// byte size is at most n.
func (s *listState) MoveB(c *Ctx, dst State, n *term.Term, f *Filter, g *term.Term) error {
	if err := s.checkBytes(); err != nil {
		return err
	}
	if f != nil {
		if err := s.checkField(f.Field); err != nil {
			return err
		}
	}
	return s.moveMatched(c, dst, s.wantB(c, n, f, g), f)
}

// moveMatched moves the packets want marks: by shifts when unfiltered,
// since then want is a prefix of the valid slots.
func (s *listState) moveMatched(c *Ctx, dst State, want []*term.Term, f *Filter) error {
	if f == nil {
		return s.movePrefix(c, dst, want)
	}
	return s.move(c, dst, want)
}

// wantP marks, under g, the first n packets that match f.
func (s *listState) wantP(c *Ctx, n *term.Term, f *Filter, g *term.Term) []*term.Term {
	b := c.B
	mask := s.matchMask(c, chain(f))
	want := make([]*term.Term, len(mask))
	rank := b.IntConst(0)
	for i, m := range mask {
		want[i] = b.And(g, m, b.Lt(rank, n))
		rank = b.Add(rank, boolToInt(b, m))
	}
	return want
}

// wantB marks, under g, the packets that match f while the running byte
// total of the matching packets stays within n.
func (s *listState) wantB(c *Ctx, n *term.Term, f *Filter, g *term.Term) []*term.Term {
	b := c.B
	mask := s.matchMask(c, chain(f))
	want := make([]*term.Term, len(mask))
	cum := b.IntConst(0)
	for i, m := range mask {
		cum = b.Add(cum, b.Ite(m, s.bytes[i], b.IntConst(0)))
		want[i] = b.And(g, m, b.Le(cum, n))
	}
	return want
}

// Arrive implements State.
func (s *listState) Arrive(c *Ctx, p Packet, g *term.Term) {
	b := c.B
	cnt := s.count(c)
	fits := b.Lt(cnt, b.IntConst(int64(s.cfg.Cap)))
	place := b.And(g, fits)
	for j := 0; j < s.cfg.Cap; j++ {
		here := b.And(place, b.Eq(cnt, b.IntConst(int64(j))))
		s.valid[j] = b.Or(s.valid[j], here)
		for f := 0; f < s.cfg.NumFields; f++ {
			if !s.cfg.tracksField(f) {
				continue
			}
			var fv *term.Term
			if f < len(p.Fields) {
				fv = p.Fields[f]
			} else {
				fv = b.IntConst(0)
			}
			s.fields[j][f] = b.Ite(here, fv, s.fields[j][f])
		}
		if s.cfg.tracksBytes() {
			bytes := p.Bytes
			if bytes == nil {
				bytes = b.IntConst(1)
			}
			s.bytes[j] = b.Ite(here, bytes, s.bytes[j])
		}
	}
	s.cnt = nil
	s.dropped = b.Add(s.dropped, b.Ite(b.And(g, b.Not(fits)), b.IntConst(1), b.IntConst(0)))
}

// FlushInto implements State.
func (s *listState) FlushInto(c *Ctx, dst State) error {
	want := make([]*term.Term, len(s.valid))
	copy(want, s.valid)
	return s.movePrefix(c, dst, want)
}
