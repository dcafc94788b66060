package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func designs() []Design {
	return []Design{DesignCoupled, DesignDecoupled, DesignConsolidated}
}

func TestSubscribeResolvesOnFlush(t *testing.T) {
	for _, d := range designs() {
		t.Run(d.String(), func(t *testing.T) {
			m := New(NewMemSegmentStore(0), Options{Design: d})
			defer m.Close()
			lsn, err := m.Insert(&Record{Type: RecTxCommit, TxID: 1})
			if err != nil {
				t.Fatal(err)
			}
			target := m.CurLSN()
			ch := m.Subscribe(target)
			select {
			case <-ch:
				t.Fatal("subscription resolved before flush")
			case <-time.After(10 * time.Millisecond):
			}
			if err := m.Flush(target); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-ch:
				if err != nil {
					t.Fatalf("subscription error: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("subscription never resolved after flush")
			}
			if m.DurableLSN() < lsn {
				t.Fatalf("durable %v < commit %v", m.DurableLSN(), lsn)
			}
		})
	}
}

func TestSubscribeAlreadyDurable(t *testing.T) {
	for _, d := range designs() {
		t.Run(d.String(), func(t *testing.T) {
			m := New(NewMemSegmentStore(0), Options{Design: d})
			defer m.Close()
			if _, err := m.Insert(&Record{Type: RecTxCommit, TxID: 1}); err != nil {
				t.Fatal(err)
			}
			target := m.CurLSN()
			if err := m.Flush(target); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-m.Subscribe(target):
				if err != nil {
					t.Fatalf("subscription error: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("already-durable subscription did not resolve")
			}
		})
	}
}

func TestSubscribeFailsOnClose(t *testing.T) {
	for _, d := range designs() {
		t.Run(d.String(), func(t *testing.T) {
			m := New(NewMemSegmentStore(0), Options{Design: d})
			if _, err := m.Insert(&Record{Type: RecTxCommit, TxID: 1}); err != nil {
				t.Fatal(err)
			}
			// Subscribe far past anything that will ever be written.
			ch := m.Subscribe(m.CurLSN() + 1<<20)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-ch:
				if err != ErrLogClosed {
					t.Fatalf("got %v, want ErrLogClosed", err)
				}
			case <-time.After(time.Second):
				t.Fatal("subscription not failed at close")
			}
			// Post-close subscriptions past the durable boundary fail fast.
			if err := <-m.Subscribe(m.DurableLSN() + 1); err != ErrLogClosed {
				t.Fatalf("post-close subscribe: %v", err)
			}
		})
	}
}

func TestFlushDaemonHardensBatches(t *testing.T) {
	for _, d := range designs() {
		t.Run(d.String(), func(t *testing.T) {
			m := New(NewMemSegmentStore(0), Options{Design: d})
			defer m.Close()
			fd := NewFlushDaemon(m, DaemonOptions{})
			defer fd.Close()

			const writers = 16
			const commits = 50
			var wg sync.WaitGroup
			errs := make(chan error, writers*commits)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < commits; i++ {
						if _, err := m.Insert(&Record{Type: RecTxCommit, TxID: uint64(w + 1)}); err != nil {
							errs <- err
							return
						}
						if err := <-fd.Harden(m.CurLSN()); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := fd.Stats()
			if st.Requests != writers*commits {
				t.Fatalf("requests = %d, want %d", st.Requests, writers*commits)
			}
			if st.Batches == 0 || st.Batches > st.Requests {
				t.Fatalf("batches = %d for %d requests", st.Batches, st.Requests)
			}
			if m.DurableLSN() < m.CurLSN() {
				t.Fatalf("durable %v < cur %v after all hardens", m.DurableLSN(), m.CurLSN())
			}
		})
	}
}

func TestFlushDaemonCloseHardensQueue(t *testing.T) {
	m := New(NewMemSegmentStore(0), Options{Design: DesignCoupled})
	defer m.Close()
	fd := NewFlushDaemon(m, DaemonOptions{Interval: 50 * time.Millisecond})
	if _, err := m.Insert(&Record{Type: RecTxCommit, TxID: 1}); err != nil {
		t.Fatal(err)
	}
	target := m.CurLSN()
	ch := fd.Harden(target)
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("harden after close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not harden the queue")
	}
	if m.DurableLSN() < target {
		t.Fatalf("durable %v < target %v", m.DurableLSN(), target)
	}
}

// TestFlushDaemonSurfacesPersistentFlushFailure: a committer waiting on a
// log whose device has died gets the device error — not a hang, and not a
// bare ErrLogClosed that would hide what happened.
func TestFlushDaemonSurfacesPersistentFlushFailure(t *testing.T) {
	store := &flakyStore{Store: NewMemSegmentStore(0)}
	m := New(store, Options{Design: DesignCoupled})
	fd := NewFlushDaemon(m, DaemonOptions{})
	defer fd.Close()
	if _, err := m.Insert(&Record{Type: RecTxCommit, TxID: 1}); err != nil {
		t.Fatal(err)
	}
	store.failFlushes.Store(1 << 30)
	ch := fd.Harden(m.CurLSN())
	select {
	case err := <-ch:
		if !errors.Is(err, errFlakyDevice) {
			t.Fatalf("got %v, want the device error after persistent flush failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("committer left hanging on a dead log")
	}
}

func TestFlushDaemonKillAbandonsQueue(t *testing.T) {
	store := NewMemSegmentStore(0)
	m := New(store, Options{Design: DesignCoupled})
	fd := NewFlushDaemon(m, DaemonOptions{Interval: time.Hour}) // never flush on its own
	if _, err := m.Insert(&Record{Type: RecTxCommit, TxID: 1}); err != nil {
		t.Fatal(err)
	}
	target := m.CurLSN()
	before := m.DurableLSN()
	ch := fd.Harden(target)
	time.Sleep(10 * time.Millisecond) // let the daemon pick the target up
	fd.Kill()
	if got := m.DurableLSN(); got != before {
		t.Fatalf("kill advanced durable boundary: %v -> %v", before, got)
	}
	// The subscription must not leak: manager close resolves it one way or
	// the other (nil if the close-time flush hardened it, ErrLogClosed
	// otherwise).
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("subscription leaked past kill + close")
	}
	_ = store
}
