package lock

import (
	"context"
	"sync"
	"testing"
	"time"
)

func sliManager() *Manager {
	return NewManager(Options{Table: TablePerBucket, Pool: PoolLockFree})
}

func TestInheritAndClaim(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	n := StoreName(1)
	ctx := context.Background()

	if err := m.Lock(ctx, 1, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	if !m.ReleaseInherit(1, n, ag) {
		t.Fatal("uncontended IX grant not inherited")
	}
	if ag.Inherited() != 1 {
		t.Fatalf("agent holds %d entries, want 1", ag.Inherited())
	}
	mode, ok := ag.Claim(n, 2)
	if !ok || mode != IX {
		t.Fatalf("Claim = %v, %v; want IX, true", mode, ok)
	}
	if got := m.Holds(2, n); got != IX {
		t.Fatalf("after claim Holds(2) = %v, want IX", got)
	}
	// A claimed lock releases through the normal path.
	m.Unlock(2, n)
	if got := m.Holds(2, n); got != NL {
		t.Fatalf("after unlock Holds(2) = %v, want NL", got)
	}
	st := m.Stats()
	if st.Inherits != 1 || st.InheritedGrants != 1 || st.Revokes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInheritRefusedForNonIntentModes(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	ctx := context.Background()
	for i, mode := range []Mode{S, SIX, U, X} {
		txID := uint64(10 + i)
		n := StoreName(uint32(100 + i))
		if err := m.Lock(ctx, txID, n, mode, 0); err != nil {
			t.Fatal(err)
		}
		if m.ReleaseInherit(txID, n, ag) {
			t.Fatalf("%v grant inherited; only IS/IX are eligible", mode)
		}
		m.Unlock(txID, n)
	}
}

func TestInheritRefusedWithWaiters(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	n := StoreName(1)
	ctx := context.Background()
	if err := m.Lock(ctx, 1, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(ctx, 2, n, X, time.Second) }()
	// Wait until tx 2 is enqueued behind the IX grant.
	for i := 0; ; i++ {
		if m.Stats().Waits > 0 {
			break
		}
		if i > 1000 {
			t.Fatal("tx 2 never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	if m.ReleaseInherit(1, n, ag) {
		t.Fatal("lock inherited over a waiter")
	}
	m.Unlock(1, n)
	if err := <-done; err != nil {
		t.Fatalf("waiter after release: %v", err)
	}
}

func TestRevokeOnConflict(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	n := StoreName(1)
	ctx := context.Background()
	if err := m.Lock(ctx, 1, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	if !m.ReleaseInherit(1, n, ag) {
		t.Fatal("not inherited")
	}
	// A conflicting request revokes the parked lock instead of waiting.
	start := time.Now()
	if err := m.Lock(ctx, 2, n, X, 0); err != nil {
		t.Fatalf("conflicting lock: %v", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("conflicting request waited instead of revoking")
	}
	if mode, ok := ag.Claim(n, 3); ok {
		t.Fatalf("claim of revoked lock succeeded with %v", mode)
	}
	st := m.Stats()
	if st.Revokes != 1 {
		t.Fatalf("Revokes = %d, want 1", st.Revokes)
	}
	m.Unlock(2, n)
	// Fallback after a failed claim is a plain acquisition.
	if err := m.Lock(ctx, 3, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	m.Unlock(3, n)
}

func TestCompatibleRequestSharesInherited(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	n := StoreName(1)
	ctx := context.Background()
	if err := m.Lock(ctx, 1, n, IS, 0); err != nil {
		t.Fatal(err)
	}
	if !m.ReleaseInherit(1, n, ag) {
		t.Fatal("not inherited")
	}
	// IS is compatible with IX: no revocation needed, both coexist.
	if err := m.Lock(ctx, 2, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Revokes != 0 {
		t.Fatal("compatible request revoked the inherited lock")
	}
	if mode, ok := ag.Claim(n, 3); !ok || mode != IS {
		t.Fatalf("Claim = %v, %v; want IS, true", mode, ok)
	}
	m.Unlock(2, n)
	m.Unlock(3, n)
}

func TestAgentDrop(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	n := StoreName(1)
	ctx := context.Background()
	if err := m.Lock(ctx, 1, n, IX, 0); err != nil {
		t.Fatal(err)
	}
	if !m.ReleaseInherit(1, n, ag) {
		t.Fatal("not inherited")
	}
	ag.Drop()
	if ag.Inherited() != 0 {
		t.Fatalf("entries after Drop = %d", ag.Inherited())
	}
	// The table is fully released: an X lock is granted immediately.
	if err := m.Lock(ctx, 2, n, X, 0); err != nil {
		t.Fatal(err)
	}
	m.Unlock(2, n)
}

// TestGrantWaitersRevokesSpeculative: a waiter that enqueued behind
// other waiters (so its own enqueue-time revocation was skipped) must
// still revoke a parked speculative lock when its turn to be granted
// comes — grantWaiters offers revocation too, or the parked lock of a
// dead transaction could outwait the lock timeout.
func TestGrantWaitersRevokesSpeculative(t *testing.T) {
	m := sliManager()
	ag := m.NewAgent()
	n := StoreName(1)
	ctx := context.Background()

	// Parked speculative IS (dead holder) plus a live S holder.
	if err := m.Lock(ctx, 1, n, IS, 0); err != nil {
		t.Fatal(err)
	}
	if !m.ReleaseInherit(1, n, ag) {
		t.Fatal("IS not inherited")
	}
	if err := m.Lock(ctx, 2, n, S, 0); err != nil {
		t.Fatal(err)
	}
	waitBlocked := func(want uint64) {
		t.Helper()
		for i := 0; m.Stats().Waits < want; i++ {
			if i > 2000 {
				t.Fatal("waiter never blocked")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// w1 wants IX: compatible with the parked IS, blocked only by the
	// live S — nothing to revoke at enqueue.
	w1 := make(chan error, 1)
	go func() { w1 <- m.Lock(ctx, 3, n, IX, 5*time.Second) }()
	waitBlocked(1)
	// w2 wants X: blocked, and hasWaiters skips its enqueue-time
	// revocation of the parked IS.
	w2 := make(chan error, 1)
	go func() { w2 <- m.Lock(ctx, 4, n, X, 5*time.Second) }()
	waitBlocked(2)

	m.Unlock(2, n) // grants w1 (IX coexists with parked IS)
	if err := <-w1; err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m.Unlock(3, n) // w2's turn: grantWaiters must revoke the parked IS
	if err := <-w2; err != nil {
		t.Fatalf("queued waiter behind a speculative holder: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("w2 granted only after %v; revocation did not happen at grant time", elapsed)
	}
	if m.Stats().Revokes == 0 {
		t.Fatal("parked IS never revoked")
	}
	m.Unlock(4, n)
}

// TestInheritRevokeRace drives the claim/revoke CAS race under the race
// detector: one worker chains IX grants through inheritance while
// another keeps taking a conflicting S lock, so claims and revocations
// interleave freely. Every operation must succeed — an inherited lock
// may never block a live conflicting request for longer than its
// revocation.
func TestInheritRevokeRace(t *testing.T) {
	m := sliManager()
	n := StoreName(1)
	ctx := context.Background()
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	aDone := make(chan struct{})

	wg.Add(2)
	go func() { // inheriting worker: claim-or-lock IX, park, repeat
		defer wg.Done()
		defer close(aDone)
		ag := m.NewAgent()
		txID := uint64(1000)
		for i := 0; i < iters; i++ {
			txID++
			if _, ok := ag.Claim(n, txID); !ok {
				if err := m.Lock(ctx, txID, n, IX, 2*time.Second); err != nil {
					errs <- err
					return
				}
			}
			if !m.ReleaseInherit(txID, n, ag) {
				m.Unlock(txID, n)
			}
			if i%4 == 0 {
				// Leave the parked lock exposed so the conflicting
				// worker's revocation races the next claim.
				time.Sleep(time.Microsecond)
			}
		}
		ag.Drop()
	}()
	go func() { // conflicting worker: S lock revokes the parked IX
		defer wg.Done()
		for txID := uint64(2_000_000); ; txID++ {
			select {
			case <-aDone:
				return
			default:
			}
			if err := m.Lock(ctx, txID, n, S, 2*time.Second); err != nil {
				errs <- err
				return
			}
			m.Unlock(txID, n)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Inherits == 0 {
		t.Fatal("race test never inherited")
	}
	if st.Revokes == 0 {
		t.Fatal("race test never revoked")
	}
}
