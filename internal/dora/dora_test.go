package dora

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/tx"
)

// fakeEnv satisfies Env with a bare transaction manager: Begin hands out
// real *tx.Tx handles and Commit/Abort only count, which is all the
// executor's own invariants need.
type fakeEnv struct {
	m          *tx.Manager
	commits    atomic.Uint64
	roCommits  atomic.Uint64
	aborts     atomic.Uint64
	precommits atomic.Uint64 // sub-transactions precommitted as a group
}

func newFakeEnv() *fakeEnv { return &fakeEnv{m: tx.NewManager()} }

func (f *fakeEnv) Begin(ctx context.Context) (*tx.Tx, error) { return f.m.Begin(), nil }

func (f *fakeEnv) Commit(t *tx.Tx, readonly bool) error {
	if readonly {
		f.roCommits.Add(1)
	} else {
		f.commits.Add(1)
	}
	return nil
}

func (f *fakeEnv) Precommit(ts []*tx.Tx) error {
	f.precommits.Add(uint64(len(ts)))
	return nil
}

func (f *fakeEnv) Abort(t *tx.Tx) error {
	f.aborts.Add(1)
	return nil
}

func TestAutoScaleAndClamp(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{})
	if got, want := x.Partitions(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("auto-scaled partitions = %d, want GOMAXPROCS = %d", got, want)
	}
	x.Close()

	var warned atomic.Bool
	x = NewExecutor(env, Options{Partitions: 8, Keys: 3, Logf: func(string, ...any) { warned.Store(true) }})
	if got := x.Partitions(); got != 3 {
		t.Errorf("clamped partitions = %d, want 3", got)
	}
	if !warned.Load() {
		t.Error("clamping did not log a warning")
	}
	x.Close()
}

// TestRouteSplitsKeysEvenly pins the one ownership rule, shared by
// shared-tree DORA and PLP: over P partitions, keys 1..K land inside
// [0, P), each partition gets ⌊K/P⌋ or ⌈K/P⌉ of them, and keys k and
// k+P share an owner.
func TestRouteSplitsKeysEvenly(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		x := NewExecutor(newFakeEnv(), Options{Partitions: p})
		for _, k := range []int{p, 7, 8, 64} {
			per := make([]int, p)
			for key := uint32(1); key <= uint32(k); key++ {
				owner := x.Route(key)
				if owner < 0 || owner >= p {
					t.Fatalf("P=%d: Route(%d) = %d, outside [0, %d)", p, key, owner, p)
				}
				per[owner]++
				if next := x.Route(key + uint32(p)); next != owner {
					t.Errorf("P=%d: Route(%d) = %d, Route(%d) = %d; want one owner", p, key, owner, key+uint32(p), next)
				}
			}
			for i, n := range per {
				if n != k/p && n != (k+p-1)/p {
					t.Errorf("P=%d K=%d: partition %d owns %d keys, want %d or %d", p, k, i, n, k/p, (k+p-1)/p)
				}
			}
		}
		x.Close()
	}
}

func TestSingleActionCommit(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{Partitions: 2})
	defer x.Close()

	var ran atomic.Bool
	txn := x.NewTxn(context.Background())
	txn.Add(ActionSpec{
		Partition: 1,
		Locks:     []LockReq{{Key: 7, Mode: lock.X}},
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			if sub == nil {
				return errors.New("nil sub-transaction")
			}
			ran.Store(true)
			return nil
		},
	})
	if err := x.Submit(txn); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("body did not run")
	}
	if env.commits.Load() != 1 || env.aborts.Load() != 0 {
		t.Fatalf("commits=%d aborts=%d, want 1/0", env.commits.Load(), env.aborts.Load())
	}

	ro := x.NewTxn(context.Background())
	ro.Add(ActionSpec{
		Partition: 0,
		ReadOnly:  true,
		Run:       func(ctx context.Context, sub *tx.Tx, _ uint64) error { return nil },
	})
	if err := x.Submit(ro); err != nil {
		t.Fatal(err)
	}
	if env.roCommits.Load() != 1 {
		t.Fatalf("read-only commits = %d, want 1", env.roCommits.Load())
	}

	st := x.Stats()
	if st.LocalTx != 2 || st.CrossTx != 0 || st.LocalAcquires == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{Partitions: 2})

	if err := x.Submit(x.NewTxn(context.Background())); !errors.Is(err, ErrNoActions) {
		t.Errorf("empty txn: %v, want ErrNoActions", err)
	}
	dep := x.NewTxn(context.Background())
	dep.Add(ActionSpec{Partition: 0, Dependent: true,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error { return nil }})
	if err := x.Submit(dep); !errors.Is(err, ErrNoProducer) {
		t.Errorf("dependent without producer: %v, want ErrNoProducer", err)
	}

	x.Close()
	closed := x.NewTxn(context.Background())
	closed.Add(ActionSpec{Partition: 0,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error { return nil }})
	if err := x.Submit(closed); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

func TestAbortPropagation(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{Partitions: 2})
	defer x.Close()

	boom := errors.New("boom")
	// The healthy action gates the failing one so both partitions have
	// begun their sub-transactions before the failure flag is raised —
	// otherwise the laggard legitimately skips Begin and has nothing to
	// roll back.
	healthyRan := make(chan struct{})
	txn := x.NewTxn(context.Background())
	txn.Add(ActionSpec{
		Partition: 0,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			close(healthyRan)
			return nil
		},
	})
	txn.Add(ActionSpec{
		Partition: 1,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			<-healthyRan
			return boom
		},
	})
	if err := x.Submit(txn); !errors.Is(err, boom) {
		t.Fatalf("Submit = %v, want boom", err)
	}
	if env.aborts.Load() != 2 || env.commits.Load() != 0 {
		t.Fatalf("aborts=%d commits=%d, want 2/0 (both partitions roll back)", env.aborts.Load(), env.commits.Load())
	}
	if st := x.Stats(); st.Aborts != 1 || st.CrossTx != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDependentReceivesInput(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{Partitions: 2})
	defer x.Close()

	var got atomic.Uint64
	txn := x.NewTxn(context.Background())
	txn.Add(ActionSpec{
		Partition: 0,
		Produces:  true,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			txn.PublishInput(42)
			return nil
		},
	})
	txn.Add(ActionSpec{
		Partition: 1,
		Dependent: true,
		Run: func(ctx context.Context, sub *tx.Tx, input uint64) error {
			got.Store(input)
			return nil
		},
	})
	if err := x.Submit(txn); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 42 {
		t.Fatalf("dependent input = %d, want 42", got.Load())
	}
	if env.commits.Load() != 2 || env.precommits.Load() != 2 {
		t.Fatalf("commits = %d, precommitted as one = %d; want 2, 2", env.commits.Load(), env.precommits.Load())
	}
}

// TestCrossPartitionLockHold pins the rendezvous contract: a
// multi-partition transaction's locks stay held on every partition until
// the decision, so a conflicting local transaction observes either all
// or none of it. Transaction A's partition-1 action finishes its body
// quickly but A's partition-0 action is gated; B conflicts with A on
// partition 1 and must therefore run after A's gate opens.
func TestCrossPartitionLockHold(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{Partitions: 2})
	defer x.Close()

	gate := make(chan struct{})
	var mu sync.Mutex
	var events []string
	record := func(ev string) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}

	a := x.NewTxn(context.Background())
	a.Add(ActionSpec{
		Partition: 0,
		Locks:     []LockReq{{Key: 100, Mode: lock.X}},
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			<-gate
			record("a0")
			return nil
		},
	})
	a.Add(ActionSpec{
		Partition: 1,
		Locks:     []LockReq{{Key: 200, Mode: lock.X}},
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			record("a1")
			return nil
		},
	})

	done := make(chan error, 2)
	go func() { done <- x.Submit(a) }()

	// Wait until A's partition-1 body has run (its lock on 200 is now
	// held pending the rendezvous), then submit the conflicting B.
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("a1 never ran")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	b := x.NewTxn(context.Background())
	b.Add(ActionSpec{
		Partition: 1,
		Locks:     []LockReq{{Key: 200, Mode: lock.S}},
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			record("b")
			return nil
		},
	})
	go func() { done <- x.Submit(b) }()
	// Open the gate only once B is parked behind A's lock (or, if the
	// executor is broken, B's body already ran — caught below).
	for {
		if x.Stats().LocalWaits > 0 {
			break
		}
		mu.Lock()
		ran := len(events) > 1
		mu.Unlock()
		if ran {
			break
		}
		select {
		case <-deadline:
			t.Fatal("B neither parked nor ran")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	idx := map[string]int{}
	for i, ev := range events {
		idx[ev] = i
	}
	if !(idx["b"] > idx["a0"]) {
		t.Fatalf("B ran before A's rendezvous completed: %v", events)
	}
	if st := x.Stats(); st.LocalWaits == 0 {
		t.Fatalf("expected B to park behind A's lock: %+v", st)
	}
}

// TestStressNoDeadlock hammers a small keyspace with conflicting single-
// and multi-partition transactions from many submitters; completion
// within the timeout is the deadlock-freedom assertion.
func TestStressNoDeadlock(t *testing.T) {
	env := newFakeEnv()
	x := NewExecutor(env, Options{Partitions: 4})
	defer x.Close()

	const (
		submitters = 8
		iters      = 200
	)
	finished := make(chan struct{})
	var failures atomic.Uint64
	go func() {
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					txn := x.NewTxn(context.Background())
					// Conflict-heavy: every transaction touches key (i%3)
					// on two partitions chosen by submitter and iteration.
					p1 := s % 4
					p2 := (s + i) % 4
					key := uint64(i % 3)
					if p1 == p2 {
						txn.Add(ActionSpec{
							Partition: p1,
							Locks:     []LockReq{{Key: key, Mode: lock.X}},
							Run:       func(ctx context.Context, sub *tx.Tx, _ uint64) error { return nil },
						})
					} else {
						txn.Add(ActionSpec{
							Partition: p1,
							Locks:     []LockReq{{Key: key, Mode: lock.X}},
							Produces:  true,
							Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
								txn.PublishInput(uint64(i))
								return nil
							},
						})
						txn.Add(ActionSpec{
							Partition: p2,
							Locks:     []LockReq{{Key: key, Mode: lock.X}},
							Dependent: true,
							Run: func(ctx context.Context, sub *tx.Tx, input uint64) error {
								if input != uint64(i) {
									return fmt.Errorf("input %d, want %d", input, i)
								}
								return nil
							},
						})
					}
					if err := x.Submit(txn); err != nil {
						failures.Add(1)
					}
				}
			}(s)
		}
		wg.Wait()
		close(finished)
	}()

	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run did not finish: likely partition deadlock")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d transactions failed", failures.Load())
	}
	st := x.Stats()
	if st.LocalTx+st.CrossTx != submitters*iters {
		t.Fatalf("tx count %d+%d, want %d", st.LocalTx, st.CrossTx, submitters*iters)
	}
	if env.commits.Load() != uint64(st.Routed) {
		t.Fatalf("commits %d != routed actions %d", env.commits.Load(), st.Routed)
	}
}

// TestSubmitReturnsAfterClose: a crash closes the executor under running
// transactions. Here the partition that would apply A's decision has
// already exited when A's last action finishes, so A can never finish;
// Submit must return ErrClosed once the owners are gone instead of
// waiting for it forever.
func TestSubmitReturnsAfterClose(t *testing.T) {
	x := NewExecutor(newFakeEnv(), Options{Partitions: 2})
	entered, gate := make(chan struct{}), make(chan struct{})
	a := x.NewTxn(context.Background())
	a.Add(ActionSpec{Partition: 0, Run: func(context.Context, *tx.Tx, uint64) error {
		close(entered)
		<-gate
		return nil
	}})
	a.Add(ActionSpec{Partition: 1, Run: func(context.Context, *tx.Tx, uint64) error { return nil }})
	done := make(chan error, 1)
	go func() { done <- x.Submit(a) }()
	<-entered
	go x.Close()
	<-x.parts[1].exited
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit still waiting 10 s after Close")
	}
}
