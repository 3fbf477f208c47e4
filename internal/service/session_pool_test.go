package service

import (
	"context"
	"testing"

	"buffy/internal/ir"
	"buffy/internal/qm"
	"buffy/internal/session"
)

// TestPoolDropsClosedSession checks that a session which closed itself
// while held (a step stopped part-way) leaves the pool on release, so the
// next request for its key builds a fresh session rather than finding a
// dead one and solving cold.
func TestPoolDropsClosedSession(t *testing.T) {
	p := newSessionPool(4, 0, newMetrics())
	builds := 0
	build := func() (*session.Session, error) {
		builds++
		info, err := qm.Load(qm.RRQuerySrc)
		if err != nil {
			t.Fatal(err)
		}
		return session.New(info, session.Options{IR: ir.Options{T: 2, Params: map[string]int64{"N": 2}}})
	}
	ctx := context.Background()
	first, release, _, err := p.acquire(ctx, "k", build)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	release()
	if live, _ := p.stats(); live != 0 {
		t.Fatalf("pool holds %d entries after its session closed, want 0", live)
	}
	second, release, hit, err := p.acquire(ctx, "k", build)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if hit || second == first || second.Closed() || builds != 2 {
		t.Fatalf("hit=%v same=%v closed=%v builds=%d, want a fresh build", hit, second == first, second.Closed(), builds)
	}
}
