package service

import (
	"container/list"
	"context"
	"sync"

	"buffy/internal/session"
)

// sessionPool is a bounded, memory-accounted LRU of warm solver sessions
// keyed by the request's session fingerprint (SessionKey). A hit re-solves
// on an encoding some earlier request already paid for; a miss builds the
// session once under single-flight admission (concurrent requesters for
// the same key wait on the first builder instead of racing N compiles).
//
// Eviction is by entry count and by estimated bytes: every session's
// footprint (problem encoding + learnt-clause database) is charged against
// the pool budget and re-read after each use, so a session whose learnt DB
// balloons pushes the pool over budget and gets colder entries — or
// itself — evicted. Eviction closes the session even while holders are
// mid-sweep: Close never blocks, the holder's next query observes
// session.ErrClosed and degrades to cold solves, never a wrong answer.
type sessionPool struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	totalBytes int64
	order      *list.List // front = most recently used; values are *poolEntry
	entries    map[string]*list.Element

	met *metrics
}

type poolEntry struct {
	key string
	// ready is closed when the single-flight build completes (sess or err
	// set); waiters block on it without holding the pool lock.
	ready chan struct{}
	sess  *session.Session
	err   error
	built bool
	refs  int
	bytes int64
}

// newSessionPool sizes the pool; maxEntries <= 0 disables pooling (every
// acquire builds a private session).
func newSessionPool(maxEntries int, maxBytes int64, met *metrics) *sessionPool {
	return &sessionPool{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		met:        met,
	}
}

// acquire returns a warm session for key, building one with build on a
// miss. hit reports whether an already-built pooled session answered.
// The returned release must be called exactly once when the caller is done
// with the session (it re-reads the footprint and triggers eviction).
// A nil session with nil error means "sweep cold" (the program cannot
// share an encoding); any other build error is the caller's to surface.
func (p *sessionPool) acquire(ctx context.Context, key string, build func() (*session.Session, error)) (sess *session.Session, release func(), hit bool, err error) {
	noop := func() {}
	if p.maxEntries <= 0 {
		// Pooling disabled: a private session still wins within one sweep
		// (horizons share the encoding) but is never reused across requests.
		s, err := build()
		if err == session.ErrConstHorizon {
			return nil, noop, false, nil
		}
		return s, noop, false, err
	}

	p.mu.Lock()
	if el, ok := p.entries[key]; ok {
		ent := el.Value.(*poolEntry)
		ent.refs++
		p.order.MoveToFront(el)
		p.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			p.release(ent)
			return nil, noop, false, ctx.Err()
		}
		if ent.err != nil {
			// The build we waited on failed; the builder already removed the
			// entry from the index, so release only drops our ref count.
			p.release(ent)
			if ent.err == session.ErrConstHorizon {
				return nil, noop, false, nil
			}
			return nil, noop, false, ent.err
		}
		p.met.sessionHits.Add(1)
		return ent.sess, func() { p.release(ent) }, true, nil
	}

	// Miss: insert a building placeholder so concurrent requesters for the
	// same key wait on us, then build outside the lock.
	ent := &poolEntry{key: key, ready: make(chan struct{}), refs: 1}
	p.entries[key] = p.order.PushFront(ent)
	p.mu.Unlock()
	p.met.sessionMisses.Add(1)

	s, berr := build()

	p.mu.Lock()
	ent.sess, ent.err, ent.built = s, berr, true
	if berr != nil {
		// Failed builds never occupy a slot; waiters observe ent.err.
		p.removeLocked(ent)
	} else {
		ent.bytes = s.Footprint()
		p.totalBytes += ent.bytes
		p.evictLocked()
	}
	p.mu.Unlock()
	close(ent.ready)

	if berr == session.ErrConstHorizon {
		return nil, noop, false, nil
	}
	if berr != nil {
		return nil, noop, false, berr
	}
	return s, func() { p.release(ent) }, false, nil
}

// release drops one holder's reference and re-accounts the session's
// footprint (the learnt DB grew while the holder queried).
func (p *sessionPool) release(ent *poolEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ent.refs > 0 {
		ent.refs--
	}
	if ent.sess != nil {
		if _, live := p.entries[ent.key]; live {
			nb := ent.sess.Footprint()
			p.totalBytes += nb - ent.bytes
			ent.bytes = nb
			p.evictLocked()
		}
	}
}

// evictLocked enforces both budgets, oldest-first, skipping entries still
// building (their cost is unknown and their builder holds no verdicts
// yet). Evicted sessions are closed immediately — holders mid-sweep see
// ErrClosed on their next query and degrade to cold solves.
func (p *sessionPool) evictLocked() {
	for p.order.Len() > p.maxEntries {
		if !p.evictOldestLocked("entries") {
			break
		}
	}
	for p.maxBytes > 0 && p.totalBytes > p.maxBytes && p.order.Len() > 1 {
		if !p.evictOldestLocked("memory") {
			break
		}
	}
	// A single session over the whole budget is evicted too: better an
	// occasional cold rebuild than unbounded learnt-clause growth.
	if p.maxBytes > 0 && p.totalBytes > p.maxBytes {
		p.evictOldestLocked("memory")
	}
}

func (p *sessionPool) evictOldestLocked(reason string) bool {
	for el := p.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*poolEntry)
		if !ent.built {
			continue
		}
		p.removeLocked(ent)
		ent.sess.Close()
		p.met.count(p.met.evictionsBy, reason)
		return true
	}
	return false
}

// removeLocked detaches an entry from the index and the byte accounting.
func (p *sessionPool) removeLocked(ent *poolEntry) {
	el, ok := p.entries[ent.key]
	if !ok || el.Value.(*poolEntry) != ent {
		return
	}
	p.order.Remove(el)
	delete(p.entries, ent.key)
	p.totalBytes -= ent.bytes
}

// stats reports the pool's live-entry count and accounted bytes.
func (p *sessionPool) stats() (live int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order.Len(), p.totalBytes
}

// closeAll evicts everything (shutdown).
func (p *sessionPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for el := p.order.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*poolEntry); ent.built && ent.sess != nil {
			ent.sess.Close()
		}
	}
	p.order.Init()
	p.entries = make(map[string]*list.Element)
	p.totalBytes = 0
}
