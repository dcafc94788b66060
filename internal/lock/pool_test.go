//go:build !race

package lock

import (
	"context"
	"testing"

	"repro/internal/page"
)

// TestPoolReuse: the request pool recycles. 10 000 no-wait Acquire/Unlock
// pairs on distinct names allocate fewer than 100 requests, and a request
// that comes back from the pool comes back reset. A per-processor pool
// promises no identity (a GC may drop what was put), only that misses are
// rare; the race detector makes sync.Pool drop puts at random on purpose,
// so this test is not built with it.
func TestPoolReuse(t *testing.T) {
	for _, pk := range []PoolKind{PoolMutex, PoolLockFree} {
		t.Run(pk.String(), func(t *testing.T) {
			m := newTestManager(TablePerBucket, pk)
			for i := 0; i < 10000; i++ {
				n := RowName(1, page.RID{Page: page.ID(i + 1), Slot: 1})
				if err := m.Acquire(context.Background(), 1, n, X, true); err != nil {
					t.Fatal(err)
				}
				m.Unlock(1, n)
			}
			if a := m.Stats().PoolAllocs; a >= 100 {
				t.Fatalf("10 000 lock/unlock pairs allocated %d requests, want < 100", a)
			}

			p := newPool(pk)
			for i := 0; i < 10000; i++ {
				r := p.get()
				if r.txID != 0 || r.mode != NL || r.want != NL ||
					r.granted || r.wake != nil || r.next != nil || r.head != nil {
					t.Fatalf("get %d: request not reset", i)
				}
				r.txID = 9
				r.mode, r.want, r.granted = X, X, true
				r.wake, r.next, r.head = make(chan struct{}), r, &lockHead{}
				p.put(r)
			}
			if a := p.allocations(); a >= 100 {
				t.Fatalf("10 000 get/put pairs allocated %d requests, want < 100", a)
			}
		})
	}
}
