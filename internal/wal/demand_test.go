package wal

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// settle returns once the background flusher has finished every kick sent
// before the call, and restarts it with no kick pending. The second send
// blocks until the flusher takes the first, which it does only between
// drains. Call it when nobody waits: the flusher ignores its kicks.
func settle(l *ringLog) {
	l.kick <- struct{}{}
	l.kick <- struct{}{}
	l.stopFlusher()
	l.startFlusher()
}

// TestFlushOnlyOnDemand counts store flushes on the two designs with a
// background flusher: a drain runs for a target somebody waits for, or for
// a ring over half full, and for nothing else. The records inserted while
// a Flush is inside the store are nobody's target; a flusher that drained
// whenever anyone waited would flush them too, twice for one Flush.
func TestFlushOnlyOnDemand(t *testing.T) {
	const ringSize = 1 << 16
	for _, d := range []Design{DesignDecoupled, DesignConsolidated} {
		t.Run(d.String(), func(t *testing.T) {
			store := &gateStore{Store: NewMemSegmentStore(0), entered: make(chan struct{}, 16), release: make(chan struct{})}
			l := newRingLog(store, ringSize, d)
			var opened sync.Once
			open := func() { opened.Do(func() { close(store.release) }) }
			defer l.Close()
			defer open()
			insert := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, err := l.Insert(testRecord(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			flushes := func(step string, want uint64) {
				t.Helper()
				settle(l)
				if got := l.Stats().Flushes; got != want {
					t.Fatalf("%s: %d store flushes in all, want %d", step, got, want)
				}
			}

			insert(10)
			flushes("inserts with no waiter", 0)

			target := l.CurLSN()
			flushed := make(chan error, 1)
			go func() { flushed <- l.Flush(target) }()
			<-store.entered // the Flush's drain is inside the store
			insert(10)
			// A flusher kicked now, with the Flush's target not yet durable,
			// drains these records after it; give such a kick the time to
			// reach the flusher before the gate opens.
			time.Sleep(10 * time.Millisecond)
			open()
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			flushes("one Flush, and inserts while it was in the store", 1)

			insert(10)
			flushes("inserts after the Flush", 1)

			for durable := l.DurableLSN(); l.CurLSN()-durable <= ringSize/2; {
				insert(1)
			}
			end := l.CurLSN()
			for deadline := time.Now().Add(10 * time.Second); l.DurableLSN() < end; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the ring is over half full and durable stays at %v", l.DurableLSN())
				}
			}
			flushes("an insert past half the ring", 2)
		})
	}
}

// TestInsertKicks holds the insert's half of the rule still, with the
// flusher stopped so that a kick stays in its channel: an insert kicks
// when a waiter's target reaches into its bytes, which the drain the
// waiter asked for may have missed, and when the ring is over half full,
// raising want to its end; otherwise it does not.
func TestInsertKicks(t *testing.T) {
	const ringSize = 1 << 16
	for _, d := range []Design{DesignDecoupled, DesignConsolidated} {
		t.Run(d.String(), func(t *testing.T) {
			l := newRingLog(NewMemSegmentStore(0), ringSize, d)
			l.stopFlusher()
			l.stop = nil // Close drains inline and stops nothing
			defer l.Close()
			insert := func(step string, kick bool) {
				t.Helper()
				if _, err := l.Insert(testRecord(0)); err != nil {
					t.Fatal(err)
				}
				select {
				case <-l.kick:
					if !kick {
						t.Fatalf("%s: the insert kicked the flusher", step)
					}
				default:
					if kick {
						t.Fatalf("%s: the insert left the flusher idle", step)
					}
				}
			}
			insert("nobody waits", false)
			l.gc.ask(l.CurLSN() + 1)
			insert("a target reaches into the record", true)
			insert("the target is below the record", false)
			for l.CurLSN()-l.DurableLSN()+LSN(testRecord(0).EncodedSize()) <= ringSize/2 {
				insert("the ring is under half full", false)
			}
			insert("the ring is over half full", true)
			if want, cur := LSN(l.gc.want.Load()), l.CurLSN(); want != cur {
				t.Fatalf("the insert past half the ring asked for %v, want its end %v", want, cur)
			}
		})
	}
}

// jitterStore sleeps 0–50 µs in every Flush, so that drains of every
// length overlap inserts at every point of their reservation and publish.
type jitterStore struct{ Store }

func (s jitterStore) Flush(upTo int64) error {
	time.Sleep(time.Duration(rand.IntN(51)) * time.Microsecond)
	return s.Store.Flush(upTo)
}

// TestFlushPastCopied is the lost wake-up under load, on all three designs.
// Eight goroutines insert and Flush to CurLSN, the reservation head, so a
// target is often past copied: a neighbour has reserved its bytes and not
// yet published them, and the drain the Flush asked for can run first.
// Every Flush must return, with its target durable.
func TestFlushPastCopied(t *testing.T) {
	const workers, limit = 8, 10 * time.Second
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			l := newRingLog(jitterStore{NewMemSegmentStore(0)}, 1<<16, d)
			defer l.Close()
			stop := time.Now().Add(time.Second)
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func() {
					for i := 0; time.Now().Before(stop); i++ {
						if _, err := l.Insert(testRecord(i)); err != nil {
							errs <- err
							return
						}
						target, start := l.CurLSN(), time.Now()
						if err := l.Flush(target); err != nil {
							errs <- err
							return
						}
						if took := time.Since(start); took > limit {
							errs <- fmt.Errorf("Flush(%v) took %v", target, took)
							return
						}
						if durable := l.DurableLSN(); durable < target {
							errs <- fmt.Errorf("Flush(%v) returned with durable at %v", target, durable)
							return
						}
					}
					errs <- nil
				}()
			}
			timeout := time.After(time.Second + limit)
			for w := 0; w < workers; w++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-timeout:
					t.Fatalf("a Flush did not return within %v", limit)
				}
			}
		})
	}
}
