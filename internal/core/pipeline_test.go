package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/waltest"
)

// newPipelineEngine builds a StagePipeline engine — the preset as it is,
// consolidated log and all — over a fault-injecting volume, so tests can
// prove no page I/O leaks pre-committed state, and a gated log store: the
// log's flusher may run at any moment, so a test that needs the window
// between pre-commit and durability to stay open shuts the gate.
func newPipelineEngine(t *testing.T) (*Engine, *disk.FaultVolume, *waltest.GateStore) {
	t.Helper()
	return newGatedEngine(t, StagePipeline)
}

// newGatedEngine is newPipelineEngine at any stage.
func newGatedEngine(t *testing.T, stage Stage) (*Engine, *disk.FaultVolume, *waltest.GateStore) {
	t.Helper()
	vol := disk.NewFault(disk.NewMem(0))
	logStore := waltest.NewGateStore(wal.NewMemSegmentStore(0))
	cfg := StageConfig(stage)
	cfg.Frames = 256
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		logStore.Open() // a test that failed with the gate shut must not hang Close
		e.Close()
	})
	return e, vol, logStore
}

// reopenPipeline opens a fresh StagePipeline engine over the same (crashed)
// stores, running restart recovery.
func reopenPipeline(t *testing.T, vol disk.Volume, logStore wal.Store) *Engine {
	t.Helper()
	cfg := StageConfig(StagePipeline)
	cfg.Frames = 256
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// seedRow commits one row and returns its location.
func seedRow(t *testing.T, e *Engine, val string) (uint32, page.RID) {
	t.Helper()
	store := createTable(t, e)
	t0, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := e.HeapInsertCtx(context.Background(), t0, store, []byte(val))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t0); err != nil {
		t.Fatal(err)
	}
	return store, rid
}

func readCommitted(t *testing.T, e *Engine, store uint32, rid page.RID) string {
	t.Helper()
	tr, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.HeapReadCtx(context.Background(), tr, store, rid)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tr); err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestPipelineCrashBetweenPrecommitAndHarden is the pipeline's central
// recovery obligation: a transaction that released its locks at
// pre-commit but whose commit record never reached the disk must be
// rolled back by restart recovery, never exposed as committed.
func TestPipelineCrashBetweenPrecommitAndHarden(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "before")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	// Freeze the window: any page write between pre-commit and the crash
	// would be a WAL violation (it would have to force the log first), so
	// fail all of them.
	vol.FailWritesAfter(0)
	parked := logStore.Shut()
	acked := e.CommitAsync(t1)
	if t1.State() != tx.StateCommitting {
		t.Fatalf("state after pre-commit: %v", t1.State())
	}
	<-parked // the flusher is in the store with the commit record
	if d, target := e.Log().DurableLSN(), t1.HardenTarget(); d >= target {
		t.Fatalf("commit already durable (%v >= %v); the crash window is gone", d, target)
	}

	logStore.Cut() // the flush in flight never completes: the commit record dies unsynced
	if err := <-acked; err == nil {
		t.Fatal("commit acknowledged although its flush failed")
	}
	e.CrashHard()
	vol.HealWrites()

	e2 := reopenPipeline(t, vol, logStore)
	if got := readCommitted(t, e2, store, rid); got != "before" {
		t.Fatalf("pre-committed but unhardened tx survived the crash: %q", got)
	}
	if n := e2.txns.ActiveCount(); n != 0 {
		t.Fatalf("active transactions after recovery: %d", n)
	}
}

// TestPipelineELRReaderSeesUnhardenedWrite pins down what Early Lock
// Release exposes and what it does not: a reader can acquire the
// releaser's locks and see its writes before they are durable, but if the
// system crashes before hardening, recovery rolls everything back — the
// read value was never acknowledged as committed to anyone.
func TestPipelineELRReaderSeesUnhardenedWrite(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "before")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	logStore.Shut()
	e.CommitAsync(t1) // pre-committed when it returns; never acknowledged
	target := t1.HardenTarget()

	// ELR: the X lock is gone, so a reader gets in without waiting …
	t2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.HeapReadCtx(context.Background(), t2, store, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after" {
		t.Fatalf("ELR reader saw %q, want the pre-committed value", got)
	}
	// … and inherits the releaser's durability horizon.
	if h := t2.ELRHorizon(); h < target {
		t.Fatalf("reader horizon %v < releaser target %v", h, target)
	}

	logStore.Cut()
	e.CrashHard()

	e2 := reopenPipeline(t, vol, logStore)
	if got := readCommitted(t, e2, store, rid); got != "before" {
		t.Fatalf("phantom-durable data after crash: %q", got)
	}
}

// TestPipelineELRReaderCommitHardensReleaser: when the reader's own
// commit hardens, the log's prefix ordering guarantees the releaser's
// commit hardened too — the dependency can never invert.
func TestPipelineELRReaderCommitHardensReleaser(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "before")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	parked := logStore.Shut()
	e.CommitAsync(t1) // pre-committed, not durable; nobody waits for it

	t2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeapReadCtx(context.Background(), t2, store, rid); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- e.Commit(t2) }() // durable on return
	<-parked
	logStore.Open()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}

	e.CrashHard()

	e2 := reopenPipeline(t, vol, logStore)
	if got := readCommitted(t, e2, store, rid); got != "after" {
		t.Fatalf("reader acknowledged but releaser lost: %q", got)
	}
}

// TestPipelineBlockingCommitDurableOnReturn: the staged pipeline must not
// weaken Commit's contract.
func TestPipelineBlockingCommitDurableOnReturn(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "v0")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if t1.State() != tx.StateCommitted {
		t.Fatalf("state after commit: %v", t1.State())
	}

	e.CrashHard() // pull the plug the instant Commit returned

	e2 := reopenPipeline(t, vol, logStore)
	if got := readCommitted(t, e2, store, rid); got != "v1" {
		t.Fatalf("blocking commit not durable on return: %q", got)
	}
}

// TestPipelineCommitAsync: the channel fires once the commit LSN is
// durable, and the result survives a hard crash.
func TestPipelineCommitAsync(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "v0")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := <-e.CommitAsync(t1); err != nil {
		t.Fatal(err)
	}
	if t1.State() != tx.StateCommitted {
		t.Fatalf("state after async commit resolved: %v", t1.State())
	}
	if d, c := e.Log().DurableLSN(), t1.LastLSN(); d <= c { // the commit record is t1's last
		t.Fatalf("async commit resolved before durable: durable %v, commit %v", d, c)
	}

	e.CrashHard()
	e2 := reopenPipeline(t, vol, logStore)
	if got := readCommitted(t, e2, store, rid); got != "v1" {
		t.Fatalf("async-committed value lost: %q", got)
	}
}

// TestPipelineAbortAfterPreCommitRejected: once pre-committed, a
// transaction cannot roll back voluntarily.
func TestPipelineAbortAfterPreCommitRejected(t *testing.T) {
	e, _, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "v0")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	logStore.Shut()
	acked := e.CommitAsync(t1)
	if err := e.Abort(t1); !errors.Is(err, ErrCommitting) {
		t.Fatalf("abort after pre-commit: %v", err)
	}
	// The commit can still harden normally.
	logStore.Open()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if t1.State() != tx.StateCommitted {
		t.Fatalf("state: %v", t1.State())
	}
	if err := e.Commit(t1); !errors.Is(err, ErrCommitting) {
		t.Fatalf("commit of a committed transaction: %v", err)
	}
}

// TestPipelineCheckpointDuringCommitting: a checkpoint taken while a
// transaction sits between pre-commit and harden must not list it as
// active (the checkpoint's own flush hardens its commit record), so
// recovery treats it as a winner.
func TestPipelineCheckpointDuringCommitting(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "before")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdateCtx(context.Background(), t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	// The first half of a commit alone: nobody waits for t1, so it is still
	// StateCommitting when the checkpoint snapshots the transaction table,
	// whatever the log's flusher does meanwhile.
	if err := e.precommit(t1); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	e.CrashHard()

	e2 := reopenPipeline(t, vol, logStore)
	if got := readCommitted(t, e2, store, rid); got != "after" {
		t.Fatalf("checkpoint rolled back a pre-committed winner: %q", got)
	}
}

// TestPipelineConcurrentCommitsRecover hammers the pipeline with parallel
// writers, crashes, and verifies every acknowledged commit survived.
func TestPipelineConcurrentCommitsRecover(t *testing.T) {
	e, vol, logStore := newPipelineEngine(t)
	store := createTable(t, e)

	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[string]bool)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				val := fmt.Sprintf("w%d-%d", w, i)
				tw, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := e.HeapInsertCtx(context.Background(), tw, store, []byte(val)); err != nil {
					errs <- err
					return
				}
				if err := e.Commit(tw); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				acked[val] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	e.CrashHard()

	e2 := reopenPipeline(t, vol, logStore)
	tr, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	if err := e2.HeapScan(tr, store, func(_ page.RID, rec []byte) bool {
		found[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Commit(tr); err != nil {
		t.Fatal(err)
	}
	for val := range acked {
		if !found[val] {
			t.Fatalf("acknowledged commit %q lost after crash (found %d/%d)", val, len(found), len(acked))
		}
	}
}
