package lock

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/page"
)

func newTestManager(t TableMode, p PoolKind) *Manager {
	return NewManager(Options{
		Buckets:        64,
		Table:          t,
		Pool:           p,
		DefaultTimeout: 200 * time.Millisecond,
	})
}

func TestCompatibilityMatrixSpotChecks(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, U, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, SIX, false},
		{S, S, true}, {S, IX, false}, {S, U, true},
		{SIX, IS, true}, {SIX, S, false},
		{U, IS, true}, {U, S, true}, {U, U, false}, {U, X, false},
		{X, IS, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSupremumProperties(t *testing.T) {
	modes := []Mode{NL, IS, IX, S, SIX, U, X}
	for _, a := range modes {
		if Supremum(a, a) != a {
			t.Errorf("Supremum(%v,%v) != %v", a, a, a)
		}
		if Supremum(a, NL) != a || Supremum(NL, a) != a {
			t.Errorf("NL not identity for %v", a)
		}
		if Supremum(a, X) != X {
			t.Errorf("Supremum(%v,X) != X", a)
		}
		for _, b := range modes {
			s := Supremum(a, b)
			if !StrongerOrEqual(s, a) || !StrongerOrEqual(s, b) {
				t.Errorf("Supremum(%v,%v)=%v not an upper bound", a, b, s)
			}
		}
	}
	if Supremum(S, IX) != SIX {
		t.Errorf("Supremum(S,IX) = %v, want SIX", Supremum(S, IX))
	}
}

// TestQuickSupremumCompatibility: anything compatible with sup(a,b) is
// compatible with both a and b.
func TestQuickSupremumCompatibility(t *testing.T) {
	f := func(x, y, z uint8) bool {
		a, b, c := Mode(x%uint8(numModes)), Mode(y%uint8(numModes)), Mode(z%uint8(numModes))
		s := Supremum(a, b)
		if Compatible(s, c) {
			return Compatible(a, c) && Compatible(b, c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntentionAndStrings(t *testing.T) {
	if Intention(S) != IS || Intention(IS) != IS || Intention(X) != IX ||
		Intention(U) != IX || Intention(IX) != IX {
		t.Error("Intention mapping wrong")
	}
	for _, m := range []Mode{NL, IS, IX, S, SIX, U, X} {
		if m.String() == "" {
			t.Error("empty mode name")
		}
	}
	if ScopeDatabase.String() != "db" || ScopeStore.String() != "store" || ScopeRow.String() != "row" {
		t.Error("scope strings")
	}
	n := RowName(3, page.RID{Page: 7, Slot: 2})
	if n.String() != "store3/pg7:2" {
		t.Errorf("RowName.String = %q", n.String())
	}
	if p, ok := n.Parent(); !ok || p != StoreName(3) {
		t.Error("row parent should be its store")
	}
	if p, ok := StoreName(3).Parent(); !ok || p != DatabaseName() {
		t.Error("store parent should be db")
	}
	if _, ok := DatabaseName().Parent(); ok {
		t.Error("db has no parent")
	}
}

func testManagerVariants(t *testing.T, fn func(t *testing.T, m *Manager)) {
	for _, tm := range []TableMode{TableGlobal, TablePerBucket} {
		for _, pk := range []PoolKind{PoolMutex, PoolLockFree} {
			tm, pk := tm, pk
			t.Run(tm.String()+"/"+pk.String(), func(t *testing.T) {
				fn(t, newTestManager(tm, pk))
			})
		}
	}
}

func TestSharedThenExclusive(t *testing.T) {
	testManagerVariants(t, func(t *testing.T, m *Manager) {
		n := StoreName(1)
		if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(context.Background(), 2, n, S, 0); err != nil {
			t.Fatal(err) // S compatible with S
		}
		if err := m.Lock(context.Background(), 3, n, X, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("X over two S holders = %v, want timeout", err)
		}
		m.Unlock(1, n)
		m.Unlock(2, n)
		if err := m.Lock(context.Background(), 3, n, X, 0); err != nil {
			t.Fatal(err)
		}
		if m.Holds(3, n) != X {
			t.Fatalf("Holds = %v, want X", m.Holds(3, n))
		}
		m.Unlock(3, n)
		if m.Holds(3, n) != NL {
			t.Fatal("lock survived unlock")
		}
	})
}

func TestReacquireAndConversion(t *testing.T) {
	testManagerVariants(t, func(t *testing.T, m *Manager) {
		n := RowName(1, page.RID{Page: 2, Slot: 3})
		if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
			t.Fatal(err)
		}
		// Re-acquire weaker/equal: no-op.
		if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(context.Background(), 1, n, IS, 0); err != nil {
			t.Fatal(err)
		}
		if m.Holds(1, n) != S {
			t.Fatalf("mode = %v, want S", m.Holds(1, n))
		}
		// Upgrade S -> X with no other holders: immediate.
		if err := m.Lock(context.Background(), 1, n, X, 0); err != nil {
			t.Fatal(err)
		}
		if m.Holds(1, n) != X {
			t.Fatalf("mode = %v, want X", m.Holds(1, n))
		}
		m.Unlock(1, n)
	})
}

func TestConversionWaitsForReaders(t *testing.T) {
	m := newTestManager(TablePerBucket, PoolLockFree)
	n := StoreName(9)
	if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(context.Background(), 2, n, S, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- m.Lock(context.Background(), 1, n, X, time.Second) // conversion blocked by tx2
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("conversion granted too early: %v", err)
	default:
	}
	m.Unlock(2, n)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Holds(1, n) != X {
		t.Fatalf("mode after conversion = %v", m.Holds(1, n))
	}
	m.Unlock(1, n)
}

func TestSupremumConversionSIX(t *testing.T) {
	m := newTestManager(TablePerBucket, PoolLockFree)
	n := StoreName(4)
	if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(context.Background(), 1, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	if m.Holds(1, n) != SIX {
		t.Fatalf("S + IX = %v, want SIX", m.Holds(1, n))
	}
	m.Unlock(1, n)
}

func TestFIFONoStarvation(t *testing.T) {
	m := newTestManager(TablePerBucket, PoolLockFree)
	n := StoreName(5)
	if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
		t.Fatal(err)
	}
	// Writer queues.
	wDone := make(chan error, 1)
	go func() { wDone <- m.Lock(context.Background(), 2, n, X, time.Second) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must NOT jump the queued writer.
	rDone := make(chan error, 1)
	go func() { rDone <- m.Lock(context.Background(), 3, n, S, time.Second) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-rDone:
		t.Fatal("reader jumped ahead of queued writer")
	default:
	}
	m.Unlock(1, n)
	if err := <-wDone; err != nil {
		t.Fatal(err)
	}
	m.Unlock(2, n)
	if err := <-rDone; err != nil {
		t.Fatal(err)
	}
	m.Unlock(3, n)
}

func TestDeadlockDetection(t *testing.T) {
	m := newTestManager(TablePerBucket, PoolLockFree)
	a, b := StoreName(1), StoreName(2)
	if err := m.Lock(context.Background(), 1, a, X, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(context.Background(), 2, b, X, 0); err != nil {
		t.Fatal(err)
	}
	// tx1 waits for b (held by tx2).
	errc := make(chan error, 1)
	go func() { errc <- m.Lock(context.Background(), 1, b, X, 2*time.Second) }()
	time.Sleep(30 * time.Millisecond)
	// tx2 requests a: cycle. The detector must abort this quickly, well
	// before the 2s timeout.
	start := time.Now()
	err := m.Lock(context.Background(), 2, a, X, 2*time.Second)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("deadlock detection took as long as a timeout")
	}
	// tx2 releases b so tx1 can proceed.
	m.Unlock(2, b)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if m.Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
	m.Unlock(1, a)
	m.Unlock(1, b)
}

func TestTimeout(t *testing.T) {
	m := NewManager(Options{Buckets: 16, DefaultTimeout: 50 * time.Millisecond})
	n := StoreName(1)
	if err := m.Lock(context.Background(), 1, n, X, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Lock(context.Background(), 2, n, X, 0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("timed out after %v, want ~50ms", d)
	}
	if m.Stats().Timeouts == 0 {
		t.Error("timeout not counted")
	}
	// After the timeout the waiter must be fully gone: unlock and relock.
	m.Unlock(1, n)
	if err := m.Lock(context.Background(), 2, n, X, 0); err != nil {
		t.Fatal(err)
	}
	m.Unlock(2, n)
}

func TestUnlockNotHeldIsNoop(t *testing.T) {
	m := newTestManager(TableGlobal, PoolMutex)
	m.Unlock(1, StoreName(1)) // nothing held: no panic
	if err := m.Lock(context.Background(), 1, StoreName(1), S, 0); err != nil {
		t.Fatal(err)
	}
	m.Unlock(2, StoreName(1)) // wrong tx: no effect
	if m.Holds(1, StoreName(1)) != S {
		t.Fatal("no-op unlock removed someone else's lock")
	}
	m.Unlock(1, StoreName(1))
}

func TestConcurrentRowLocking(t *testing.T) {
	testManagerVariants(t, func(t *testing.T, m *Manager) {
		// Concurrent transactions X-lock disjoint rows plus IX on the
		// shared store: all must succeed without waiting long.
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for tx := uint64(1); tx <= 8; tx++ {
			wg.Add(1)
			go func(tx uint64) {
				defer wg.Done()
				if err := m.Lock(context.Background(), tx, StoreName(1), IX, time.Second); err != nil {
					errs <- err
					return
				}
				for i := 0; i < 50; i++ {
					rid := page.RID{Page: page.ID(tx), Slot: uint16(i)}
					if err := m.Lock(context.Background(), tx, RowName(1, rid), X, time.Second); err != nil {
						errs <- err
						return
					}
				}
				for i := 0; i < 50; i++ {
					rid := page.RID{Page: page.ID(tx), Slot: uint16(i)}
					m.Unlock(tx, RowName(1, rid))
				}
				m.Unlock(tx, StoreName(1))
			}(tx)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Acquires < 8*51 {
			t.Errorf("acquires = %d, want >= %d", st.Acquires, 8*51)
		}
	})
}

func TestHotLockContention(t *testing.T) {
	// The WAREHOUSE-row pattern: every transaction updates the same row.
	m := newTestManager(TablePerBucket, PoolLockFree)
	hot := RowName(1, page.RID{Page: 1, Slot: 0})
	var counter int
	var wg sync.WaitGroup
	for tx := uint64(1); tx <= 4; tx++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := m.Lock(context.Background(), tx, hot, X, 5*time.Second); err != nil {
					t.Error(err)
					return
				}
				counter++
				// Yield while holding the lock so other goroutines pile up
				// on it even at GOMAXPROCS=1.
				runtime.Gosched()
				m.Unlock(tx, hot)
			}
		}(tx)
	}
	wg.Wait()
	if counter != 400 {
		t.Fatalf("counter = %d, want 400 (mutual exclusion violated)", counter)
	}
}

func TestPoolReuse(t *testing.T) {
	for _, pk := range []PoolKind{PoolMutex, PoolLockFree} {
		pk := pk
		t.Run(pk.String(), func(t *testing.T) {
			p := newPool(pk)
			r1 := p.get()
			r1.txID.Store(9)
			p.put(r1)
			r2 := p.get()
			if r2 != r1 {
				t.Error("pool did not reuse the freed request")
			}
			if r2.txID.Load() != 0 {
				t.Error("pooled request not reset")
			}
			if p.allocations() != 1 {
				t.Errorf("allocations = %d, want 1", p.allocations())
			}
		})
	}
}
