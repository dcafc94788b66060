package sync2

import (
	"runtime"
	"sync"
	"testing"
)

// exerciseMutex hammers a Locker with g goroutines incrementing a shared
// counter n times each and verifies mutual exclusion.
func exerciseMutex(t *testing.T, l Locker, g, n int) {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != g*n {
		t.Fatalf("counter = %d, want %d", counter, g*n)
	}
	st := l.Stats()
	if st.Acquisitions < uint64(g*n) {
		t.Fatalf("acquisitions = %d, want >= %d", st.Acquisitions, g*n)
	}
}

func TestMutualExclusion(t *testing.T) {
	kinds := []Kind{KindTAS, KindTATAS, KindTicket, KindMCS, KindCLH, KindHybrid, KindBlocking}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			exerciseMutex(t, New(k), 8, 2000)
		})
	}
}

func TestTryLock(t *testing.T) {
	for _, k := range []Kind{KindTAS, KindTATAS, KindTicket, KindMCS, KindCLH, KindHybrid, KindBlocking} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			l := New(k)
			if !l.TryLock() {
				t.Fatal("TryLock on free lock failed")
			}
			if l.TryLock() {
				t.Fatal("TryLock on held lock succeeded")
			}
			l.Unlock()
			if !l.TryLock() {
				t.Fatal("TryLock after Unlock failed")
			}
			l.Unlock()
		})
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindTAS: "tas", KindTATAS: "tatas", KindTicket: "ticket",
		KindMCS: "mcs", KindCLH: "clh", KindHybrid: "hybrid", KindBlocking: "blocking",
		Kind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestMCSFIFOHandoff(t *testing.T) {
	// A held MCS lock must hand off to a queued waiter on Unlock.
	var l MCSLock
	l.Lock()
	acquired := make(chan struct{})
	go func() {
		l.Lock()
		close(acquired)
		l.Unlock()
	}()
	// Give the waiter time to enqueue.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case <-acquired:
		t.Fatal("waiter acquired lock while held")
	default:
	}
	l.Unlock()
	<-acquired
}

func TestTicketLockFairnessCounter(t *testing.T) {
	var l TicketLock
	l.Lock()
	l.Unlock()
	l.Lock()
	l.Unlock()
	st := l.Stats()
	if st.Acquisitions != 2 {
		t.Fatalf("acquisitions = %d, want 2", st.Acquisitions)
	}
}

func TestStatsContention(t *testing.T) {
	var l TATASLock
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock() // must contend
		l.Unlock()
		close(done)
	}()
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	l.Unlock()
	<-done
	st := l.Stats()
	if st.Contended == 0 {
		t.Error("expected at least one contended acquisition")
	}
	if r := st.ContentionRatio(); r <= 0 || r > 1 {
		t.Errorf("contention ratio = %v, want (0,1]", r)
	}
	if (Stats{}).ContentionRatio() != 0 {
		t.Error("zero stats should have ratio 0")
	}
}

func TestRWLatchSharedReaders(t *testing.T) {
	var l RWLatch
	l.LatchSH()
	l.LatchSH()
	if got := l.Readers(); got != 2 {
		t.Fatalf("Readers() = %d, want 2", got)
	}
	if l.TryLatchEX() {
		t.Fatal("TryLatchEX succeeded with readers present")
	}
	l.UnlatchSH()
	l.UnlatchSH()
	if !l.TryLatchEX() {
		t.Fatal("TryLatchEX failed on free latch")
	}
	if l.TryLatchSH() {
		t.Fatal("TryLatchSH succeeded with writer present")
	}
	l.UnlatchEX()
}

func TestRWLatchWriterExclusion(t *testing.T) {
	var l RWLatch
	var x, writers int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.LatchEX()
				writers++
				if writers != 1 {
					panic("two writers inside latch")
				}
				x++
				writers--
				l.UnlatchEX()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.LatchSH()
				_ = x
				l.UnlatchSH()
			}
		}()
	}
	wg.Wait()
	if x != 2000 {
		t.Fatalf("x = %d, want 2000", x)
	}
}

func TestRWLatchUpgradeDowngrade(t *testing.T) {
	var l RWLatch
	l.LatchSH()
	if !l.TryUpgrade() {
		t.Fatal("TryUpgrade as sole reader failed")
	}
	if !l.HeldEX() {
		t.Fatal("latch not EX after upgrade")
	}
	l.Downgrade()
	if l.HeldEX() || l.Readers() != 1 {
		t.Fatalf("after downgrade: heldEX=%v readers=%d", l.HeldEX(), l.Readers())
	}
	// Upgrade must fail with two readers.
	l.LatchSH()
	if l.TryUpgrade() {
		t.Fatal("TryUpgrade succeeded with two readers")
	}
	l.UnlatchSH()
	l.UnlatchSH()
}

func TestRWLatchModeHelpers(t *testing.T) {
	var l RWLatch
	for _, m := range []LatchMode{LatchSH, LatchEX} {
		l.Latch(m)
		l.Unlatch(m)
		if !l.TryLatch(m) {
			t.Fatalf("TryLatch(%v) on free latch failed", m)
		}
		l.Unlatch(m)
	}
	if LatchSH.String() != "SH" || LatchEX.String() != "EX" || LatchNone.String() != "none" {
		t.Error("LatchMode.String mismatch")
	}
}

func TestRWLatchWriterPreference(t *testing.T) {
	var l RWLatch
	l.LatchSH()
	exDone := make(chan struct{})
	go func() {
		l.LatchEX() // waits, announcing intent
		l.UnlatchEX()
		close(exDone)
	}()
	// Wait for the writer to announce.
	for i := 0; i < 1000 && l.state.Load()&latchWaiterMask == 0; i++ {
		runtime.Gosched()
	}
	if l.state.Load()&latchWaiterMask == 0 {
		t.Skip("writer never announced; scheduler starvation")
	}
	if l.TryLatchSH() {
		t.Fatal("new reader admitted while writer waiting")
	}
	l.UnlatchSH()
	<-exDone
}

func TestBackoff(t *testing.T) {
	var b Backoff
	for i := 0; i < 100; i++ {
		b.Spin()
	}
	if b.Iterations() != 100 {
		t.Fatalf("Iterations = %d, want 100", b.Iterations())
	}
	b.Reset()
	if b.Iterations() != 0 {
		t.Fatal("Reset did not clear iterations")
	}
}
