package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/closed"
	"repro/internal/disk"
	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/plp"
	"repro/internal/space"
	"repro/internal/tx"
	"repro/internal/wal"
)

// Errors returned by the engine.
var (
	ErrClosed = fmt.Errorf("core: engine %w", closed.Err)
	// ErrCommitting is returned when aborting a transaction whose commit
	// record is already in the log (or committing one that has ended): the
	// record may harden at any moment and, under early lock release, the
	// locks are gone, so the only legal outcomes are hardening or crash-time
	// rollback.
	ErrCommitting = errors.New("core: transaction is pre-committed")
)

// Engine is the storage manager: the paper's contribution, assembled from
// the substrate packages according to Config.
type Engine struct {
	cfg      Config
	vol      disk.Volume
	logStore wal.Store
	log      wal.Manager
	pool     *buffer.Pool
	locks    *lock.Manager
	txns     *tx.Manager
	sm       *space.Manager
	dora     *dora.Executor // partition executor (nil unless Config.DORA)
	mvcc     *mvcc.Store    // version store for snapshot reads (nil unless Config.Snapshot)

	// PLP state (Config.PLP): the current segment catalog, published
	// through an atomic pointer so index dispatch reads it without locks;
	// plpMu serializes table registration with its catalog persistence;
	// plpRID tracks the catalog record. See plp.go.
	plpMap atomic.Pointer[plp.Map]
	plpMu  sync.Mutex
	plpRID page.RID

	// ckptMu orders commit-point publication against checkpoint snapshots:
	// committers hold it shared for the instant between inserting the
	// commit record and entering StateCommitting, Checkpoint holds it
	// exclusive for its whole body. Without it a checkpoint could snapshot
	// a transaction as active after its commit record landed below the
	// checkpoint's master LSN — and recovery would roll back a durably
	// committed transaction.
	ckptMu sync.RWMutex
	closed atomic.Bool

	// olc aggregates the descent outcomes of every tree this engine opens,
	// per latch policy (Index.access).
	olc btree.OLCStats

	// Auto-checkpoint daemon state (Config.CheckpointEvery): lastCkpt is
	// the begin LSN of the most recent checkpoint, manual or automatic.
	lastCkpt atomic.Uint64
	ckptStop chan struct{}
	ckptDone chan struct{}

	// recovery describes the restart recovery this engine ran at Open
	// (zero if the log was empty); archived counts log segments dropped
	// by checkpoint-time archiving over the engine's lifetime.
	recovery RecoveryStats
	archived atomic.Uint64

	// progs is the table of registered transaction programs (program.go).
	progs programs
}

// Open builds an engine over vol and logStore per cfg, running ARIES
// restart recovery if the log is non-empty.
func Open(vol disk.Volume, logStore wal.Store, cfg Config) (*Engine, error) {
	if cfg.PLP && cfg.DoraKeys <= 0 {
		return nil, errors.New("core: PLP needs Config.DoraKeys, the routing keyspace that sizes its segment forests")
	}
	cfg.normalize()
	e := &Engine{cfg: cfg, vol: vol, logStore: logStore}
	// Validate the log tail before any manager captures the store's size:
	// a torn tail above the durable horizon is clipped here, while damage
	// below it refuses startup with wal.ErrCorrupt.
	end, torn, err := wal.CheckTail(logStore)
	if err != nil {
		return nil, fmt.Errorf("core: recovery: %w", err)
	}
	if torn > 0 {
		if err := logStore.Truncate(end); err != nil {
			return nil, fmt.Errorf("core: recovery: clipping torn tail: %w", err)
		}
		e.recovery.TornBytesClipped = torn
	}
	e.log = wal.New(logStore, wal.Options{Design: cfg.LogDesign, BufferSize: cfg.LogBuffer})
	bopts := cfg.Buffer
	bopts.FlushLog = func(l wal.LSN) error { return e.log.Flush(l + 1) }
	bopts.CurLSN = func() wal.LSN { return e.log.CurLSN() }
	e.pool = buffer.New(vol, bopts)
	e.locks = lock.NewManager(cfg.Lock)
	e.txns = tx.NewManager()
	e.sm = space.NewManager(vol, cfg.Space)
	if cfg.Snapshot {
		e.mvcc = mvcc.NewStore()
	}
	if err := e.start(); err != nil {
		// A half-open engine dies as a crashed one does, so that nothing of
		// it — the log's flusher, the cleaner — is still writing when the
		// caller opens the store again.
		e.CrashHard()
		return nil, err
	}
	return e, nil
}

// start recovers the database and starts the background work.
func (e *Engine) start() error {
	cfg := e.cfg
	if e.logStore.DurableSize() > 8 { // anything beyond the preamble
		if err := e.restart(); err != nil {
			return fmt.Errorf("core: recovery: %w", err)
		}
	}
	if cfg.CleanerInterval > 0 {
		e.pool.StartCleaner(cfg.CleanerInterval)
	}
	if cfg.DORA {
		e.dora = dora.NewExecutor(doraEnv{e}, dora.Options{
			Partitions: cfg.DoraPartitions,
			Keys:       cfg.DoraKeys,
		})
	}
	if cfg.PLP {
		if err := e.plpInit(); err != nil {
			return fmt.Errorf("core: plp: %w", err)
		}
	}
	if cfg.CheckpointEvery > 0 {
		e.lastCkpt.Store(uint64(e.log.CurLSN()))
		e.ckptStop = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop()
	}
	return nil
}

// checkpointLoop is the auto-checkpoint daemon: it polls the log's growth
// and takes a fuzzy checkpoint whenever CheckpointEvery bytes accumulated
// since the last one (manual Checkpoint calls reset the meter too).
// Polling beats hooking the insert path — the hot path stays free of
// checkpoint bookkeeping, and a checkpoint's cost dwarfs a few dozen
// milliseconds of trigger latency.
func (e *Engine) checkpointLoop() {
	defer close(e.ckptDone)
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	skip := 0 // ticks to sit out after a failure (exponential, capped)
	fails := 0
	for {
		select {
		case <-e.ckptStop:
			return
		case <-ticker.C:
			if skip > 0 {
				skip--
				continue
			}
			if int64(uint64(e.log.CurLSN())-e.lastCkpt.Load()) >= e.cfg.CheckpointEvery {
				// A failed checkpoint (engine closing, log store trouble)
				// leaves lastCkpt in place so the attempt is retried — but
				// with exponential backoff, because each attempt itself
				// appends log records and sweeps the pool; hammering a
				// persistently failing store at tick rate would grow the
				// very log this daemon exists to bound.
				if err := e.Checkpoint(); err != nil {
					fails++
					skip = 1 << min(fails, 9) // caps at ~12.8s between attempts
				} else {
					fails = 0
				}
			}
		}
	}
}

// stopCheckpointLoop stops the auto-checkpoint daemon, waiting for any
// in-flight checkpoint to finish.
func (e *Engine) stopCheckpointLoop() {
	if e.ckptStop == nil {
		return
	}
	close(e.ckptStop)
	<-e.ckptDone
	e.ckptStop = nil
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// Pool exposes the buffer pool (read-mostly: stats, sweeps).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// Log exposes the log manager.
func (e *Engine) Log() wal.Manager { return e.log }

// Locks exposes the lock manager.
func (e *Engine) Locks() *lock.Manager { return e.locks }

// Txns exposes the transaction manager.
func (e *Engine) Txns() *tx.Manager { return e.txns }

// Space exposes the free-space manager.
func (e *Engine) Space() *space.Manager { return e.sm }

// Close flushes and shuts the engine down cleanly. The log's close-time
// flush hardens every commit still waiting for its durability.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.stopCheckpointLoop()
	if e.dora != nil {
		e.dora.Close() // partition owners drain their queues
	}
	if err := e.pool.Close(); err != nil {
		return err
	}
	return e.log.Close()
}

// ctxErr maps a cancelled context onto the lock package's ErrCanceled
// sentinel (the engine-wide cancellation currency), or nil.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", lock.ErrCanceled, context.Cause(ctx))
	}
	return nil
}

// Begin starts a transaction and logs its begin record. It is BeginCtx
// without a context, kept for perf/ until ROADMAP item 16.
func (e *Engine) Begin() (*tx.Tx, error) { return e.BeginCtx(context.Background()) }

// BeginCtx is Begin observing ctx: a transaction begun with it threads no
// state — cancellation is checked here and must be passed to each
// subsequent operation via its Ctx variant.
func (e *Engine) BeginCtx(ctx context.Context) (*tx.Tx, error) { return e.begin(ctx, false) }

// begin starts a transaction. A noLock one is a DORA partition-local
// sub-transaction: it never reaches the lock manager (see doraEnv).
func (e *Engine) begin(ctx context.Context, noLock bool) (*tx.Tx, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	t := e.txns.Begin()
	if noLock {
		t.SetNoLock()
	}
	rec := &t.LogScratch().Rec
	*rec = wal.Record{Type: wal.RecTxBegin, TxID: t.ID()}
	lsn, err := e.log.Insert(rec)
	if err != nil {
		return nil, err
	}
	t.RecordLog(lsn)
	return t, nil
}

// Dora returns the partition executor (nil unless Config.DORA). Build
// transactions with its NewTxn/Submit; action bodies receive
// partition-local sub-transactions that never touch the lock manager.
func (e *Engine) Dora() *dora.Executor { return e.dora }

// doraEnv adapts the engine to dora.Env: partition-local sub-
// transactions are ordinary engine transactions marked NoLock — they
// log, latch, and roll back exactly like any other transaction, but
// every lock-manager trip is skipped because the owning partition's
// thread-local table already serialized conflicting actions.
type doraEnv struct{ e *Engine }

func (v doraEnv) Begin(ctx context.Context) (*tx.Tx, error) { return v.e.begin(ctx, true) }

func (v doraEnv) Commit(t *tx.Tx, readonly bool) error {
	if readonly {
		return v.e.CommitReadOnly(context.Background(), t)
	}
	return v.e.CommitCtx(context.Background(), t)
}

func (v doraEnv) Abort(t *tx.Tx) error { return v.e.Abort(t) }

// Precommit puts one commit record for all of ts in the log; Commit then
// finishes each of them.
func (v doraEnv) Precommit(ts []*tx.Tx) error { return v.e.precommit(ts...) }

// Commit makes t durable. Every commit flavour is one sequence: the commit
// record (publishCommit), one wait for the harden target (awaitDurable),
// then the transaction retires. The stage decides one thing, where the
// locks go: with Stage.EarlyLockRelease they are released before the wait
// (later acquirers inherit the target as their ELR horizon), without it
// after. Either way, when Commit returns nil the commit is
// durable. Commit is CommitCtx without a context, kept for perf/ until
// ROADMAP item 16.
func (e *Engine) Commit(t *tx.Tx) error { return e.CommitCtx(context.Background(), t) }

// CommitCtx is Commit whose durability wait observes ctx. Cancellation
// mid-wait returns lock.ErrCanceled-wrapped context error and leaves t in
// StateCommitting: the commit record is already in the log, so the
// transaction is in doubt — the caller may call Commit again (the record is
// not re-inserted; only the wait resumes), hand it to CommitDetached, or
// walk away and let restart recovery settle it. It can never abort: the
// log's flusher may harden the commit record at any moment.
func (e *Engine) CommitCtx(ctx context.Context, t *tx.Tx) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if t.State() == tx.StateActive {
		// Fail fast on a dead context before the commit record exists: at
		// this point the transaction can still abort cleanly, whereas one
		// instruction later it is in doubt and will commit despite the
		// caller being told it was cancelled.
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := e.precommit(t); err != nil {
			return err
		}
	}
	return e.finishCommit(ctx, t)
}

// precommit puts t's commit record in the log and, under early lock
// release, releases its locks at once: the ELR horizon is raised first so
// that whoever acquires one of them observes it. From here t cannot abort; a
// crash before its harden target is durable rolls it back at restart (the
// commit record never reached the disk, so analysis sees a loser).
func (e *Engine) precommit(ts ...*tx.Tx) error {
	target, err := e.publishCommit(ts...)
	if err != nil {
		return err
	}
	if e.cfg.Stage.EarlyLockRelease() {
		e.locks.RaiseELR(uint64(target))
		for _, t := range ts {
			e.releaseLocks(t)
		}
	}
	return nil
}

// finishCommit waits until t's commit is durable, releases the locks
// precommit kept, and retires t. An interrupted wait (ctx, a failed log
// device, a closing engine) leaves t as it found it, in StateCommitting,
// and can be resumed by calling this again.
func (e *Engine) finishCommit(ctx context.Context, t *tx.Tx) error {
	if t.State() != tx.StateCommitting {
		return fmt.Errorf("%w: tx %d is %v", ErrCommitting, t.ID(), t.State())
	}
	if err := e.awaitDurable(ctx, t.HardenTarget()); err != nil {
		return err
	}
	if !e.cfg.Stage.EarlyLockRelease() {
		e.releaseLocks(t)
	}
	return e.txns.Commit(t)
}

// awaitDurable waits for the log to make every record below target
// durable, or for ctx. A blocking wait may run the log's drain itself; a
// wait with a context hands it to the log's flusher. The flush is never
// torn down — group commit goes on for everyone else — the caller only
// stops waiting for it; the subscription it leaves behind is resolved and
// dropped by the flusher.
func (e *Engine) awaitDurable(ctx context.Context, target wal.LSN) error {
	if ctx.Done() == nil {
		return e.log.Flush(target) // nothing else to wait on: no channel, no allocation
	}
	select {
	case err := <-e.log.Subscribe(target):
		return err
	case <-ctx.Done():
		return ctxErr(ctx)
	}
}

// CommitDetached finishes an in-doubt commit — t is in StateCommitting, its
// durability wait was interrupted — for a caller that is walking away from
// it: once the flush lands the locks go and t retires, the outcome
// unobserved, exactly as if the caller had crashed after the commit record.
// If the log is dead or the engine closing, t stays in doubt for restart
// recovery. The caller must not touch t again.
func (e *Engine) CommitDetached(t *tx.Tx) {
	go func() { _ = e.finishCommit(context.Background(), t) }()
}

// publishCommit is the commit point shared by every commit flavor: it
// inserts one commit record for ts and moves each of them to
// StateCommitting atomically with respect to checkpoint snapshots (shared
// ckptMu; see its comment), and stamps the harden target — CurLSN as a
// group-commit-friendly cover of the record, raised to any observed ELR
// horizon so the acknowledgment stays ordered behind every early releaser
// whose data it may have read (the horizon is zero without
// CommitPipeline). The record is ts[0]'s and its redo payload names the
// others (their ids, uvarints), so restart recovery finds all of them
// committed or none: the sub-transactions of a partitioned transaction
// (doraEnv.Precommit) cannot be torn by a crash.
func (e *Engine) publishCommit(ts ...*tx.Tx) (wal.LSN, error) {
	e.ckptMu.RLock()
	defer e.ckptMu.RUnlock()
	if e.mvcc != nil {
		// Pending floor: between here and the stamp store below, this
		// commit is in the log but its versions are unstamped. New
		// snapshots are clamped below the floor so they see the commit as
		// a whole or not at all. The floor is exclusive (CurLSN+1, like a
		// snapshot LSN): earlier commits stamped at exactly CurLSN stay
		// visible, while this commit's stamp will land strictly above it.
		// The deferred EndPublish also covers the insert-failure path
		// (the stamp stays 0: still invisible).
		for _, t := range ts {
			if st := t.Stamp(); st != nil {
				e.mvcc.BeginPublish(st, uint64(e.log.CurLSN())+1)
			}
		}
		defer func() {
			for _, t := range ts {
				if st := t.Stamp(); st != nil {
					e.mvcc.EndPublish(st)
				}
			}
		}()
	}
	s := ts[0].LogScratch()
	s.Buf = s.Buf[:0]
	for _, t := range ts[1:] {
		s.Buf = binary.AppendUvarint(s.Buf, t.ID())
	}
	rec := &s.Rec
	*rec = wal.Record{Type: wal.RecTxCommit, TxID: ts[0].ID(), PrevLSN: ts[0].LastLSN(), Redo: s.Buf}
	lsn, err := e.log.Insert(rec)
	if err != nil {
		return wal.NullLSN, err
	}
	ts[0].RecordLog(lsn)
	target := e.log.CurLSN()
	for _, t := range ts {
		target = max(target, t.ELRHorizon())
	}
	for _, t := range ts {
		t.SetHardenTarget(target)
		if st := t.Stamp(); st != nil {
			// Stamp with the harden target, not the commit record's own
			// LSN: a snapshot S only admits stamps strictly below it, and
			// S never exceeds the durable horizon, so stamp < S proves the
			// whole commit record is on disk. Folding the ELR horizon
			// keeps stamps ordered behind every early releaser whose data
			// t read.
			st.Commit(uint64(target))
		}
		if err := e.txns.BeginCommit(t); err != nil {
			return wal.NullLSN, err
		}
	}
	return target, nil
}

// CommitReadOnly ends a transaction the caller guarantees performed no
// updates: commit record, lock release — and no durability wait of its
// own, because there is nothing whose loss a crash could expose (losing
// the commit record of a read-only transaction merely makes recovery
// treat it as a loser with an empty undo chain). The one exception is an
// inherited Early-Lock-Release horizon: a reader that observed writes of
// a not-yet-hardened committer must not acknowledge before that horizon
// is durable, or a crash could un-commit data the reader already
// reported. The public View API rides on this.
func (e *Engine) CommitReadOnly(ctx context.Context, t *tx.Tx) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if t.State() != tx.StateActive {
		return fmt.Errorf("%w: tx %d is %v", ErrCommitting, t.ID(), t.State())
	}
	if t.IsSnapshot() {
		// Snapshot reader: no commit record, no locks, no durability wait
		// (its snapshot LSN was durable before it began — nothing it read
		// can be un-committed by a crash). Just unpin and retire.
		e.mvcc.Unpin(t.SnapshotLSN())
		return e.txns.Commit(t)
	}
	if err := ctxErr(ctx); err != nil {
		return err // still abortable; don't push past the point of no return
	}
	if _, err := e.publishCommit(t); err != nil {
		return err
	}
	e.releaseLocks(t)
	if h := t.ELRHorizon(); h > e.log.DurableLSN() {
		if err := e.awaitDurable(ctx, h); err != nil {
			return err // in doubt: Commit resumes the wait
		}
	}
	return e.txns.Commit(t)
}

// CommitAsync starts committing t and returns a channel that fires
// exactly once: nil when the commit is durable, an error otherwise. The
// commit record is in the log when CommitAsync returns; under early
// lock release t's locks are released too — other transactions can read
// its (not yet durable) writes, ordered behind this commit's durability
// via the ELR horizon. The caller must not touch t after calling this.
func (e *Engine) CommitAsync(t *tx.Tx) <-chan error {
	out := make(chan error, 1)
	if e.closed.Load() {
		out <- ErrClosed
		return out
	}
	if t.State() == tx.StateActive {
		if err := e.precommit(t); err != nil {
			if t.State() == tx.StateActive {
				// The commit record never made it into the log, and the
				// caller has no handle to clean up with: roll back here
				// rather than strand the locks.
				_ = e.Abort(t)
			}
			out <- err
			return out
		}
	}
	go func() { out <- e.finishCommit(context.Background(), t) }()
	return out
}

// Abort rolls t back: undo every update (physical or logical), writing
// compensation records, then release locks. Abort deliberately has no
// ctx-observing variant: once begun, rollback must run to completion to
// restore consistency — a cancelled caller still gets a full abort.
func (e *Engine) Abort(t *tx.Tx) error {
	if t.State() == tx.StateCommitting {
		// The commit record is logged and may harden at any moment, and
		// with early lock release another transaction may already have read
		// t's writes. Only hardening or restart recovery may resolve it,
		// also once the engine is closed or crashed.
		return fmt.Errorf("%w: tx %d", ErrCommitting, t.ID())
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if t.IsSnapshot() {
		// Snapshot reader: nothing to undo, nothing logged, no locks.
		e.mvcc.Unpin(t.SnapshotLSN())
		return e.txns.Abort(t)
	}
	rec := &t.LogScratch().Rec
	*rec = wal.Record{Type: wal.RecTxAbort, TxID: t.ID(), PrevLSN: t.LastLSN()}
	lsn, err := e.log.Insert(rec)
	if err != nil {
		return err
	}
	t.RecordLog(lsn)
	if err := e.rollback(t, t.UndoNext()); err != nil {
		return fmt.Errorf("core: rollback of tx %d: %w", t.ID(), err)
	}
	*rec = wal.Record{Type: wal.RecTxEnd, TxID: t.ID(), PrevLSN: t.LastLSN()}
	if _, err := e.log.Insert(rec); err != nil {
		return err
	}
	if st := t.Stamp(); st != nil {
		// Only after rollback restored every page: an aborted entry may be
		// GC'd at any time, and a reader finding neither the entry nor a
		// restored page would return uncommitted data. From here on the
		// entries' before-images equal the restored values — harmless.
		st.Abort()
	}
	e.releaseLocks(t)
	return e.txns.Abort(t)
}

// releaseLocks drops every lock t holds (end of 2PL), each exactly once
// (the lock list is deduplicated by the private cache), and folds t's
// lock grants and the hits of its private lock and extent caches into
// their managers' Stats.
func (e *Engine) releaseLocks(t *tx.Tx) {
	names := t.Locks()
	for i := len(names) - 1; i >= 0; i-- {
		e.locks.Unlock(t.ID(), names[i])
	}
	e.locks.Fold(t.LockAcquires(), t.LockCacheHits())
	e.sm.FoldCacheHits(&t.ExtentCache)
}

// acquire takes a lock for t, recording it for release; ctx cancellation
// unblocks the wait, and with noWait it never waits: a conflict returns
// lock.ErrWouldBlock. The transaction-private cache runs first: when the
// held mode already covers the request, return without any
// shared-structure access. Conversions (held mode weaker than requested)
// always reach the manager.
func (e *Engine) acquire(ctx context.Context, t *tx.Tx, n lock.Name, m lock.Mode, noWait bool) error {
	if t.NoLock() {
		// DORA sub-transaction: the partition owner already serialized
		// every conflicting action through its thread-local table.
		return nil
	}
	if held := t.HeldMode(n); held != lock.NL && lock.StrongerOrEqual(held, m) {
		t.HitLockCache()
		return nil
	}
	if err := e.locks.Acquire(ctx, t.ID(), n, m, noWait); err != nil {
		return err
	}
	e.recordLock(t, n, m)
	return nil
}

// recordLock records and counts a lock the manager granted t. Under
// early lock release the lock may have been released by a transaction
// whose commit record is not yet durable; folding the ELR horizon into t
// orders t's own commit acknowledgment behind that releaser's
// durability. A cache hit skips the fold safely: it adds no dependency the
// original acquisition did not already observe.
func (e *Engine) recordLock(t *tx.Tx, n lock.Name, m lock.Mode) {
	t.AddLock(n, m)
	t.CountAcquire()
	if e.cfg.Stage.EarlyLockRelease() {
		t.ObserveELR(wal.LSN(e.locks.ELRHorizon()))
	}
}

// escalate counts one more row lock of t on store and, on the first past
// escalateAfter and again each time the count doubles, tries to
// trade the row locks for one store lock (S for a read, X for a write).
// The try never waits: a caller may hold a page latch, and a refused
// escalation that waited would wait again on later rows. On a refusal
// the caller keeps locking rows; retrying only at 2×, 4×, … the threshold
// keeps that from costing a store lock-head trip per row.
func (e *Engine) escalate(t *tx.Tx, store uint32, m lock.Mode) bool {
	n := t.CountRowLock(store)
	if n <= escalateAfter || (n-1)%escalateAfter != 0 || bits.OnesCount(uint((n-1)/escalateAfter)) != 1 {
		return false
	}
	mode, name := lock.S, lock.StoreName(store)
	if m == lock.X || m == lock.U {
		mode = lock.X
	}
	granted := e.locks.Acquire(context.Background(), t.ID(), name, mode, true) == nil
	e.locks.NoteEscalation(granted)
	if granted {
		e.recordLock(t, name, mode)
	}
	return granted
}

// lockRow is the one path that locks a leaf of store — a heap row
// (lock.RowName) or an index key (keyLockName) — in mode m (S, U or X):
// DORA sub-transactions skip it; a store lock held in a covering mode (an
// escalation's, or a scan's S) or the leaf lock already held (its intents
// were taken before it) answers from the private cache, without the
// manager; otherwise the intents, escalate and the leaf lock. With noWait
// (the caller holds a page latch) a conflict returns lock.ErrWouldBlock;
// the caller unlatches, calls again to wait, and retries.
func (e *Engine) lockRow(ctx context.Context, t *tx.Tx, store uint32, name lock.Name, m lock.Mode, noWait bool) error {
	if t.NoLock() {
		return nil
	}
	if lock.StrongerOrEqual(t.HeldMode(lock.StoreName(store)), m) {
		return nil
	}
	if held := t.HeldMode(name); held != lock.NL && lock.StrongerOrEqual(held, m) {
		t.HitLockCache()
		return nil
	}
	intent := lock.Intention(m)
	if err := e.acquire(ctx, t, lock.DatabaseName(), intent, noWait); err != nil {
		return err
	}
	if err := e.acquire(ctx, t, lock.StoreName(store), intent, noWait); err != nil {
		return err
	}
	if e.escalate(t, store, m) {
		return nil
	}
	return e.acquire(ctx, t, name, m, noWait)
}

// logPhysical appends an update record for op on f's page, applies it, and
// stamps LSN + dirty. The undo is the logical descriptor when there is one,
// nothing for a redo-only record (pass redoOnly=true), and otherwise op's
// physical inverse where it has one. The record is built in t's scratch
// space — the log manager copies it out before Insert returns, and neither
// it nor installVersion keeps a reference — so op and logical may alias
// the page: they are encoded before Apply touches it. An op the page
// cannot take is refused before anything reaches the log.
func (e *Engine) logPhysical(t *tx.Tx, f *buffer.Frame, op pageop.Op, logical pageop.Logical, redoOnly bool) error {
	if err := pageop.Check(f.Page(), op); err != nil {
		return fmt.Errorf("core: %v on %v: %w", op.Kind, f.PID(), err)
	}
	s := t.LogScratch()
	inv, physical := pageop.Op{}, false
	if logical.Kind == pageop.LogicalNone && !redoOnly {
		inv, physical = pageop.Invert(op)
	}
	// Redo and undo side by side, so the buffer grows at most once per
	// record: at most one of inv and logical is set.
	need := 2*pageop.MaxHeader + len(op.Data) + len(inv.Data) + len(logical.Key) + len(logical.Value)
	buf := op.AppendEncode(slices.Grow(s.Buf[:0], need))
	redoLen := len(buf)
	if physical {
		buf = inv.AppendEncode(buf)
	} else if logical.Kind != pageop.LogicalNone {
		buf = logical.AppendEncode(buf)
	}
	s.Buf = buf
	rec := &s.Rec
	*rec = wal.Record{
		Type:    wal.RecUpdate,
		TxID:    t.ID(),
		PrevLSN: t.LastLSN(),
		Page:    f.PID(),
		Redo:    buf[:redoLen],
		Undo:    buf[redoLen:],
	}
	lsn, err := e.log.Insert(rec)
	if err != nil {
		return err
	}
	if e.mvcc != nil && !redoOnly {
		// Install the before-image BEFORE applying the page change: a
		// snapshot reader reads the page first (under its latch or a
		// validated optimistic read) and resolves after, so any write it
		// can observe in the page is guaranteed to have its chain entry.
		// Rollback and recovery never come through here with undo
		// (physical undo applies directly, logical undo re-enters the
		// tree as redo-only), so versions install exactly once per
		// forward update.
		e.installVersion(t, f, op, logical)
	}
	if err := pageop.Apply(f.Page(), op); err != nil {
		// Check passed under the same latch, so this is a bug, and the log
		// record is already out.
		return fmt.Errorf("core: apply %v on %v: %w", op.Kind, f.PID(), err)
	}
	f.Page().SetLSN(uint64(lsn))
	f.MarkDirty(lsn)
	t.RecordLog(lsn)
	return nil
}

// Checkpoint takes a fuzzy checkpoint: begin record, transaction + dirty
// page tables, end record, master update. From StageFinal on
// (Stage.CleanerCheckpoint, §7.7) the dirty-page table collapses to the
// cleaner-published low-water mark instead of a serial buffer pool sweep.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	beginLSN, err := e.log.Insert(&wal.Record{Type: wal.RecCkptBegin})
	if err != nil {
		return err
	}
	data := wal.CheckpointData{
		BeginLSN: beginLSN,
		Txs:      e.txns.Snapshot(),
	}
	if e.cfg.Stage.CleanerCheckpoint() {
		if l := e.pool.CleanerCkptLSN(); l != wal.NullLSN {
			// Low-water mark entry: page 0 carries the oldest possible
			// recLSN; redo starts there, no page list needed.
			data.Dirty = []wal.DirtyInfo{{Page: 0, RecLSN: l}}
		} else {
			data.Dirty = e.pool.DirtyPageTable(beginLSN)
		}
	} else {
		// The pre-§7.7 serial sweep of the whole buffer pool.
		data.Dirty = e.pool.DirtyPageTable(beginLSN)
	}
	endLSN, err := e.log.Insert(&wal.Record{
		Type: wal.RecCkptEnd,
		Redo: data.Encode(),
	})
	if err != nil {
		return err
	}
	if err := e.log.Flush(endLSN + 1); err != nil {
		return err
	}
	if err := e.logStore.SetMaster(beginLSN); err != nil {
		return err
	}
	// Reset the auto-checkpoint meter only once the checkpoint fully
	// landed, so a failed attempt is retried on the daemon's next tick.
	e.lastCkpt.Store(uint64(beginLSN))
	e.archiveSegments(&data)
	if e.mvcc != nil {
		// Version GC rides the checkpoint daemon: drop every before-image
		// committed below the oldest snapshot any reader can still pin
		// (exclusive durable bound, matching BeginSnapshot's Pin).
		e.mvcc.GC(uint64(e.log.DurableLSN()) + 1)
	}
	return nil
}

// archiveSegments drops log segments wholly below the recovery safe
// point of checkpoint c: recovery never reads below min(checkpoint begin,
// oldest dirty recLSN, oldest LastLSN of its table (where analysis may
// start), oldest live undo chain), so sealed segments under it are dead
// weight. Failures are ignored — archiving is opportunistic and the next
// checkpoint retries.
func (e *Engine) archiveSegments(c *wal.CheckpointData) {
	ar, ok := e.logStore.(wal.Archiver)
	if !ok {
		return
	}
	point := c.BeginLSN
	for _, d := range c.Dirty {
		if d.RecLSN != wal.NullLSN && d.RecLSN < point {
			point = d.RecLSN
		}
	}
	for _, t := range c.Txs {
		if t.LastLSN != wal.NullLSN && t.LastLSN < point {
			point = t.LastLSN
		}
	}
	first, ok := e.txns.MinFirstLSN()
	if !ok {
		// Some transaction's chain extent is unknown (begin record not
		// linked yet); skip this round rather than guess.
		return
	}
	if first != wal.NullLSN && first < point {
		point = first
	}
	if n, err := ar.ArchiveBelow(point); err == nil {
		e.archived.Add(uint64(n))
	}
}

// Crash simulates power failure for recovery testing: background work
// stops, the log's staged buffer contents are flushed up to the close
// point, and what the store had not synced vanishes.
func (e *Engine) Crash() { e.crash(true) }

// CrashHard is Crash without the close-time log flush: only what group
// commit already made durable survives. It most closely models pulling
// the plug.
func (e *Engine) CrashHard() { e.crash(false) }

// crash cuts the power at one instant, as ARIES assumes: the log manager
// stops (after its close-time flush if there is to be one) and its store
// crashes before anything else stops, so nothing still running can make
// a write durable or acknowledge a commit. Only then are the lock waiters
// woken with lock.ErrClosed and the partition owners stopped: an action
// in flight fails on the dead log, and its transaction is a loser at
// restart.
func (e *Engine) crash(flushLog bool) {
	if e.closed.Swap(true) {
		return
	}
	e.stopCheckpointLoop()
	if flushLog {
		_ = e.log.Close() // a failed device loses the tail, as the crash would
	}
	e.log.Kill()
	e.logStore.Crash()
	e.locks.Close()
	if e.dora != nil {
		e.dora.Close()
	}
	e.pool.StopCleaner()
}

// EngineStats aggregates component statistics for profiling output.
type EngineStats struct {
	Buffer   buffer.Stats
	Log      wal.ManagerStats
	Lock     lock.Stats
	Space    space.Stats
	Tx       tx.Stats
	Btree    btree.OLCSnapshot // which latch policy index descents ran under
	Dora     dora.Stats        // zero unless DORA is enabled
	Recovery RecoveryStats     // zero unless Open ran restart recovery
	Mvcc     mvcc.Stats        // zero unless Snapshot is enabled
	Plp      PlpStats          // zero unless PLP is enabled
}

// Stats snapshots all component counters.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Buffer: e.pool.Stats(),
		Log:    e.log.Stats(),
		Lock:   e.locks.Stats(),
		Space:  e.sm.Stats(),
		Tx:     e.txns.Stats(),
		Btree:  e.olc.Snapshot(),
	}
	if e.dora != nil {
		s.Dora = e.dora.Stats()
	}
	if e.mvcc != nil {
		s.Mvcc = e.mvcc.Stats()
	}
	if m := e.plpMap.Load(); m != nil {
		s.Plp = PlpStats{
			Keys:       m.Keys(),
			Partitions: e.dora.Partitions(),
			Tables:     len(m.Tables()),
			MapVersion: 1,
		}
	}
	s.Recovery = e.recovery
	s.Recovery.SegmentsArchived = e.archived.Load()
	return s
}
