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
)

// newPipelineEngine builds a StagePipeline engine over a fault-injecting
// volume so tests can prove no page I/O leaks pre-committed state.
func newPipelineEngine(t *testing.T) (*Engine, *disk.FaultVolume, *wal.SegmentStore) {
	t.Helper()
	return newPipelineEngineDesign(t, StageConfig(StagePipeline).LogDesign)
}

// newPipelineEngineDesign is newPipelineEngine with an explicit log
// design. The crash-window tests use DesignCoupled: it has no background
// flusher, so the flush daemon is the only thing that can harden a
// commit and the pre-commit→harden window stays open deterministically.
// (With the decoupled/consolidated designs their internal flush daemon
// may drain the buffer at any moment — harmless for correctness, fatal
// for a test that needs the window to stay open.)
func newPipelineEngineDesign(t *testing.T, design wal.Design) (*Engine, *disk.FaultVolume, *wal.SegmentStore) {
	t.Helper()
	vol := disk.NewFault(disk.NewMem(0))
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StagePipeline)
	cfg.Frames = 256
	cfg.LogDesign = design
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
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
	rid, err := e.HeapInsert(t0, store, []byte(val))
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
	got, err := e.HeapRead(tr, store, rid)
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
	e, vol, logStore := newPipelineEngineDesign(t, wal.DesignCoupled)
	store, rid := seedRow(t, e, "before")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdate(t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	// Freeze the window: any page write between pre-commit and the crash
	// would be a WAL violation (it would have to force the log first), so
	// fail all of them.
	vol.FailWritesAfter(0)
	target, err := e.PreCommit(t1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.State() != tx.StateCommitting {
		t.Fatalf("state after pre-commit: %v", t1.State())
	}
	if d := e.Log().DurableLSN(); d >= target {
		t.Fatalf("commit already durable (%v >= %v); the crash window is gone", d, target)
	}

	e.CrashHard() // nothing flushed: the commit record dies with the buffer
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
	e, vol, logStore := newPipelineEngineDesign(t, wal.DesignCoupled)
	store, rid := seedRow(t, e, "before")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdate(t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	target, err := e.PreCommit(t1)
	if err != nil {
		t.Fatal(err)
	}

	// ELR: the X lock is gone, so a reader gets in without waiting …
	t2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.HeapRead(t2, store, rid)
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
	if err := e.HeapUpdate(t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PreCommit(t1); err != nil {
		t.Fatal(err)
	}

	t2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeapRead(t2, store, rid); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t2); err != nil { // durable on return
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
	if err := e.HeapUpdate(t1, store, rid, []byte("v1")); err != nil {
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
	if err := e.HeapUpdate(t1, store, rid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := <-e.CommitAsync(t1); err != nil {
		t.Fatal(err)
	}
	if t1.State() != tx.StateCommitted {
		t.Fatalf("state after async commit resolved: %v", t1.State())
	}
	if d, c := e.Log().DurableLSN(), t1.CommitLSN(); d <= c {
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
	e, _, _ := newPipelineEngine(t)
	store, rid := seedRow(t, e, "v0")

	t1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdate(t1, store, rid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	target, err := e.PreCommit(t1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(t1); !errors.Is(err, ErrCommitting) {
		t.Fatalf("abort after pre-commit: %v", err)
	}
	if _, err := e.PreCommit(t1); !errors.Is(err, ErrCommitting) {
		t.Fatalf("double pre-commit: %v", err)
	}
	// The commit can still harden normally.
	if err := e.awaitHarden(context.Background(), t1, target); err != nil {
		t.Fatal(err)
	}
	if t1.State() != tx.StateCommitted {
		t.Fatalf("state: %v", t1.State())
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
	if err := e.HeapUpdate(t1, store, rid, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PreCommit(t1); err != nil {
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
				if _, err := e.HeapInsert(tw, store, []byte(val)); err != nil {
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
