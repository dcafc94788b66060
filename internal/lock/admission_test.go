package lock

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// queued is one request of a lock queue as the admission rule sees it.
type queued struct {
	txID          uint64
	mode, want    Mode
	granted, wake bool
}

// queueOf copies n's queue, newest first.
func queueOf(m *Manager, n Name) []queued {
	b := m.bucketFor(n)
	b.latch.Lock()
	defer b.latch.Unlock()
	var q []queued
	if h := b.findHead(n, false); h != nil {
		for r := h.queue; r != nil; r = r.next {
			q = append(q, queued{r.txID, r.mode, r.want, r.granted, r.wake != nil})
		}
	}
	return q
}

// TestAdmissionAgrees: Lock and a no-wait Acquire share one grant rule.
// Over every mode tx 1 may hold, every mode it may request, every mode tx
// 2 may hold next to it, and with or without tx 3 queued for X behind
// them, the no-wait Acquire grants exactly when Lock grants without
// waiting, and leaves the same held mode. When it refuses, it leaves the
// queue as it found it and takes no request from the pool.
func TestAdmissionAgrees(t *testing.T) {
	all := []Mode{NL, IS, IX, S, SIX, U, X}
	n := StoreName(7)
	bg := context.Background()
	for _, held := range all {
		for _, other := range all {
			if !Compatible(held, other) {
				continue // not a state two granted requests can be in
			}
			for _, waiter := range []bool{false, true} {
				if waiter && held == NL && other == NL {
					continue // nothing for an X request to wait behind
				}
				for _, req := range all[1:] {
					name := fmt.Sprintf("held=%v/other=%v/waiter=%v/req=%v", held, other, waiter, req)
					t.Run(name, func(t *testing.T) {
						setup := func() *Manager {
							m := NewManager(Options{Buckets: 16, Pool: PoolMutex, DefaultTimeout: time.Second})
							for _, g := range []struct {
								tx   uint64
								mode Mode
							}{{1, held}, {2, other}} {
								if g.mode != NL {
									if err := m.Acquire(bg, g.tx, n, g.mode, true); err != nil {
										t.Fatalf("setup: tx %d %v: %v", g.tx, g.mode, err)
									}
								}
							}
							if waiter {
								b := m.bucketFor(n)
								b.latch.Lock()
								b.findHead(n, true).push(&request{txID: 3, want: X})
								b.latch.Unlock()
							}
							return m
						}

						locked := setup()
						waitsBefore := locked.Stats().Waits
						lockErr := locked.Lock(bg, 1, n, req, time.Nanosecond)
						lockGranted := lockErr == nil && locked.Stats().Waits == waitsBefore

						tried := setup()
						before, allocs := queueOf(tried, n), tried.Stats().PoolAllocs
						tryErr := tried.Acquire(bg, 1, n, req, true)
						if (tryErr == nil) != lockGranted {
							t.Fatalf("no-wait Acquire = %v, Lock = %v (granted without waiting: %v)", tryErr, lockErr, lockGranted)
						}
						if lockGranted {
							if got, want := tried.Holds(1, n), locked.Holds(1, n); got != want {
								t.Fatalf("no-wait Acquire left tx 1 holding %v, Lock %v", got, want)
							}
							return
						}
						if after := queueOf(tried, n); !slices.Equal(after, before) {
							t.Fatalf("refusal changed the queue:\nbefore %v\nafter  %v", before, after)
						}
						if a := tried.Stats().PoolAllocs; a != allocs {
							t.Fatalf("refusal took %d requests from the pool", a-allocs)
						}
					})
				}
			}
		}
	}
}
