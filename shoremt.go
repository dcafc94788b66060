// Package shoremt is a Go reproduction of Shore-MT, the scalable
// multithreaded storage manager of Johnson, Pandis, Hardavellas, Ailamaki
// and Falsafi (EDBT 2009). It provides a complete transactional storage
// engine — buffer pool, ARIES write-ahead logging and recovery,
// hierarchical two-phase locking, B-link-tree indexes, heap tables, and
// free-space management — in which every component exists in both its
// original (bottlenecked) and optimized (scalable) form, selectable per
// the paper's optimization stages.
//
// Quick start (managed transactions — deadlock retry is the engine's job):
//
//	db, err := shoremt.Open(shoremt.Options{})
//	var rid shoremt.RID
//	err = db.Update(ctx, func(tx *shoremt.Tx) error {
//		table, err := db.CreateTable(tx)
//		if err != nil {
//			return err
//		}
//		rid, err = table.Insert(tx, []byte("hello"))
//		return err
//	})
//
// The manual Begin/Commit path remains for callers that need explicit
// lifecycle control; see DB.Begin and the README's API tour.
package shoremt

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
)

// Stage selects the optimization level of the engine, mirroring Figure 7.
// The zero value means "the finished Shore-MT" so that Options{} gives the
// scalable engine by default. Every stage exposes the same public API —
// managed Update/View transactions included; see the README's "API tour".
type Stage int

// Optimization stages (see Figure 7 and §7 of the paper, plus the
// post-paper commit pipeline).
const (
	StageDefault  Stage = iota // same as StageFinal
	StageBaseline              // §7.1: the original Shore
	StageBpool1                // §7.2
	StageCaching               // §7.3
	StageLog                   // §7.4
	StageLockMgr               // §7.5
	StageBpool2                // §7.6
	StageFinal                 // §7.7: Shore-MT
	// StagePipeline extends the ladder past the paper with Early Lock
	// Release: a committing transaction drops its locks once its commit
	// record is in the log, before the log's flusher has made it durable.
	// Commit keeps its durable-on-return contract; CommitAsync exposes the
	// weaker pre-committed state.
	StagePipeline
)

// coreStage maps the public enum onto the engine's.
func (s Stage) coreStage() core.Stage {
	switch s {
	case StageBaseline:
		return core.StageBaseline
	case StageBpool1:
		return core.StageBpool1
	case StageCaching:
		return core.StageCaching
	case StageLog:
		return core.StageLog
	case StageLockMgr:
		return core.StageLockMgr
	case StageBpool2:
		return core.StageBpool2
	case StagePipeline:
		return core.StagePipeline
	default:
		return core.StageFinal
	}
}

// String names the stage as Figure 7 does.
func (s Stage) String() string { return s.coreStage().String() }

// Stages lists the optimization ladder in order.
func Stages() []Stage {
	return []Stage{StageBaseline, StageBpool1, StageCaching, StageLog, StageLockMgr, StageBpool2, StageFinal, StagePipeline}
}

// Durability selects what Tx.Commit guarantees when it returns. (See the
// README's "API tour" for how Durability composes with Update/View and
// contexts: View never waits for durability regardless of this setting.)
type Durability int

const (
	// DurabilityStrict (the default) makes Commit block until the commit
	// record is durable — the classical contract.
	DurabilityStrict Durability = iota
	// DurabilityRelaxed lets Commit return once the transaction is
	// pre-committed: the commit record is in the log and the locks are
	// released, but durability is hardened in the background. A crash in
	// the window silently rolls the transaction back — use CommitAsync
	// instead when the caller needs to learn the outcome. Only meaningful
	// with StagePipeline; other stages always commit strictly.
	DurabilityRelaxed
)

// RID identifies a heap record.
type RID = page.RID

// RetryPolicy governs DB.Update's (and DB.View's) automatic retry of
// deadlock victims and lock timeouts: capped exponential backoff with
// jitter. The zero value means 10 attempts, 250µs base, 50ms cap.
type RetryPolicy = core.RetryPolicy

// Options configures Open.
type Options struct {
	// Stage selects component implementations; the default is StageFinal
	// (the finished Shore-MT). It also picks how index descents latch:
	// StageFinal and StagePipeline read inner nodes optimistically, as
	// copies validated against a per-frame latch version, with no pin or
	// latch writes (falling back to the latched descent after bounded
	// restarts); the earlier stages latch every node on the way down, as
	// the paper did. Stats().Btree counts which ran. See the README's
	// "Latch hierarchy" section. The stage also decides buffer
	// replacement: one clock hand below StageBpool2, GOMAXPROCS-scaled
	// clock shards with free lists from it on (README "Buffer
	// replacement").
	Stage Stage
	// BufferFrames sizes the buffer pool in 8 KiB pages (default 4096).
	BufferFrames int
	// Dir, when non-empty, stores data and log in files under this
	// directory; otherwise everything is in memory.
	Dir string
	// LockTimeout bounds lock waits (default 500ms); waits that exceed it
	// abort with ErrTimeout.
	LockTimeout time.Duration
	// CleanerInterval runs the background page cleaner (default 50ms;
	// negative disables).
	CleanerInterval time.Duration
	// Durability selects Commit's blocking behavior (see Durability).
	Durability Durability
	// Snapshot enables lock-free snapshot reads: View transactions pin
	// the durable log horizon at begin and read everything as of that
	// LSN through writer-installed version chains, never touching the
	// lock table — a long analytical scan neither blocks TPC-C writers
	// nor can be picked as a deadlock victim, and it is never retried.
	// Writes pay one version install per row/key update; versions are
	// garbage-collected below the oldest active snapshot at every
	// checkpoint, so Snapshot brings a checkpoint cadence of its own
	// (8 MiB of log) when CheckpointEvery is 0. Observability:
	// Stats().Mvcc (VersionsInstalled / ChainWalks / GCReclaimed /
	// OldestSnapshot). See the README's "Snapshot reads" section.
	Snapshot bool
	// CheckpointEvery, when positive, takes a background fuzzy checkpoint
	// every time that many log bytes accumulate, so long-running
	// workloads bound their restart-recovery work without calling
	// DB.Checkpoint manually. Zero disables automatic checkpoints, except
	// under Snapshot, whose version GC rides them: there zero means
	// every 8 MiB.
	CheckpointEvery int64
	// LogSegmentBytes is the size of a write-ahead log segment; zero
	// selects the default (wal.DefaultSegmentBytes, 64 MiB). The log is
	// always segmented: full segments are sealed (marked immutable with a
	// recorded end LSN), checkpoints archive segments wholly below the
	// recovery horizon, and restart recovery distinguishes a torn tail in
	// the active segment (clipped and recovered) from corruption below
	// the durable horizon (startup refused with wal.ErrCorrupt). With Dir
	// set, segments live under Dir/wal/ and a log must be reopened with
	// the size it was created with; see the README's "Recovery & the
	// log" section.
	LogSegmentBytes int64
	// RedoWorkers sets the parallelism of restart recovery's redo pass
	// (log records fan out to workers hash-partitioned by page ID). 0
	// auto-scales to GOMAXPROCS; 1 forces serial replay.
	RedoWorkers int
	// Retry governs Update/View's automatic deadlock/timeout retry; the
	// zero value selects the defaults (see RetryPolicy).
	Retry RetryPolicy
}

// DB is an open database.
type DB struct {
	engine     *core.Engine
	vol        disk.Volume
	logStore   wal.Store
	durability Durability
	retry      RetryPolicy
	closed     atomic.Bool
}

// config resolves opts into the engine's component configuration.
func (opts Options) config() core.Config {
	cfg := core.StageConfig(opts.Stage.coreStage())
	if opts.BufferFrames > 0 {
		cfg.Frames = opts.BufferFrames
	}
	if opts.LockTimeout > 0 {
		cfg.LockTimeout = opts.LockTimeout
	}
	switch {
	case opts.CleanerInterval > 0:
		cfg.CleanerInterval = opts.CleanerInterval
	case opts.CleanerInterval == 0:
		cfg.CleanerInterval = 50 * time.Millisecond
	default:
		cfg.CleanerInterval = 0
	}
	if opts.Snapshot {
		cfg.Snapshot = true
	}
	if opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opts.CheckpointEvery
	}
	if opts.RedoWorkers > 0 {
		cfg.RedoWorkers = opts.RedoWorkers
	}
	return cfg
}

// Open creates or reopens a database. If the log is non-empty, ARIES
// restart recovery runs before Open returns.
func Open(opts Options) (*DB, error) {
	var vol disk.Volume
	var logStore wal.Store
	if opts.Dir != "" {
		// The log used to be one flat file, Dir/wal.log. Starting an empty
		// segmented log next to one would open an old volume without its
		// log, so refuse.
		walDir, flat := filepath.Join(opts.Dir, "wal"), filepath.Join(opts.Dir, "wal.log")
		if _, err := os.Stat(flat); err == nil {
			if _, err := os.Stat(walDir); errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("shoremt: open log: %s is a flat log from before logs were segmented and there is no %s; this version reads only segmented logs", flat, walDir)
			}
		}
		fv, err := disk.OpenFile(filepath.Join(opts.Dir, "data.vol"))
		if err != nil {
			return nil, fmt.Errorf("shoremt: open volume: %w", err)
		}
		ls, err := wal.OpenSegmentStore(walDir, opts.LogSegmentBytes)
		if err != nil {
			fv.Close()
			return nil, fmt.Errorf("shoremt: open log: %w", err)
		}
		vol, logStore = fv, ls
	} else {
		vol, logStore = disk.NewMem(0), wal.NewMemSegmentStore(opts.LogSegmentBytes)
	}
	return OpenStores(vol, logStore, opts)
}

// OpenStores is Open over a volume and a log store the caller made — a
// fault-injecting wrapper, say — instead of the ones Dir selects. The
// database owns them from here: Close closes both, and so does a failed
// open.
func OpenStores(vol disk.Volume, logStore wal.Store, opts Options) (*DB, error) {
	engine, err := core.Open(vol, logStore, opts.config())
	if err != nil {
		vol.Close()
		logStore.Close()
		return nil, err
	}
	return &DB{engine: engine, vol: vol, logStore: logStore, durability: opts.Durability, retry: opts.Retry}, nil
}

// Close flushes and closes the database. Every resource is closed even
// when an earlier one fails; the errors are joined. Close is idempotent:
// only the first call does the work, every later call returns nil — so
// a daemon's signal handler and its deferred cleanup can both call it.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	return errors.Join(db.engine.Close(), db.vol.Close(), db.logStore.Close())
}

// Checkpoint takes a fuzzy checkpoint, bounding future recovery work.
func (db *DB) Checkpoint() error { return db.engine.Checkpoint() }

// Stats returns a snapshot of every component's counters.
func (db *DB) Stats() core.EngineStats { return db.engine.Stats() }

// Engine exposes the underlying storage manager for advanced use
// (benchmarks, stage experiments).
func (db *DB) Engine() *core.Engine { return db.engine }

// Tx is an open transaction. A Tx must be used by one goroutine. Every
// transaction is bound to a context at Begin/BeginCtx/Update/View time:
// all of its lock waits and its commit's durability wait observe that
// context, and cancellation surfaces as ErrCanceled.
type Tx struct {
	db       *DB
	inner    *tx.Tx
	ctx      context.Context
	readonly bool // under View: write methods return ErrReadOnly
	managed  bool // under Update/View: Commit/Abort return ErrManaged
	done     bool
}

// Begin starts a transaction bound to context.Background. Prefer BeginCtx
// (or the managed Update/View) in code that can be cancelled.
func (db *DB) Begin() (*Tx, error) { return db.BeginCtx(context.Background()) }

// BeginCtx starts a transaction bound to ctx: every blocking point of the
// transaction — lock waits in reads and writes, the commit's durability
// wait — unblocks promptly when ctx is cancelled or its deadline passes,
// returning ErrCanceled (which wraps the context's error). The earliest
// of the ctx deadline and Options.LockTimeout bounds each lock wait.
// Cancellation does NOT abort the transaction by itself: the caller still
// owns the lifecycle and should Abort on error as usual.
func (db *DB) BeginCtx(ctx context.Context) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	inner, err := db.engine.BeginCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &Tx{db: db, inner: inner, ctx: ctx}, nil
}

// Update executes fn inside a managed read-write transaction and commits
// when fn returns nil. Deadlock victims and lock timeouts are aborted and
// retried automatically with capped exponential backoff (Options.Retry),
// so fn may run several times and must not have side effects outside the
// transaction. Any other error from fn aborts and is returned as-is.
// Cancellation of ctx stops the retry loop and unblocks any lock or
// commit wait (ErrCanceled); fn must not call Commit or Abort itself
// (they return ErrManaged).
func (db *DB) Update(ctx context.Context, fn func(*Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return db.engine.RunCtx(ctx, db.retry, func(inner *tx.Tx) error {
		w := &Tx{db: db, inner: inner, ctx: ctx, managed: true}
		err := fn(w)
		w.done = true // a leaked wrapper gets ErrTxDone, not a retired txID
		return err
	}, db.commitInner)
}

// View executes fn inside a managed read-only transaction: every write
// method returns ErrReadOnly. With Options.Snapshot the transaction is a
// lock-free snapshot reader — it sees the database as of the durable
// horizon at begin, cannot block or be blocked by writers, can never be
// a deadlock victim, and fn therefore runs exactly once. Without
// Snapshot, reads lock (S mode, two-phase), a View can be a deadlock
// victim, and like Update it is retried automatically (fn may run
// several times). Because a read-only transaction has nothing to make
// durable, its commit never waits on the log.
func (db *DB) View(ctx context.Context, fn func(*Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return db.engine.RunViewCtx(ctx, db.retry, func(inner *tx.Tx) error {
		w := &Tx{db: db, inner: inner, ctx: ctx, managed: true, readonly: true}
		err := fn(w)
		w.done = true // a leaked wrapper gets ErrTxDone, not a retired txID
		return err
	})
}

// commitInner commits a finished inner transaction per the DB's
// durability setting, observing ctx during any durability wait.
func (db *DB) commitInner(ctx context.Context, inner *tx.Tx) error {
	// Relaxed durability only applies where the stage releases locks
	// early; other stages have no pre-committed state to return early
	// from, so they always commit strictly (as Durability documents).
	if db.durability == DurabilityRelaxed && db.engine.Config().Stage.EarlyLockRelease() {
		ch := db.engine.CommitAsync(inner)
		select {
		case err := <-ch: // resolved immediately: pre-commit failure or already durable
			return err
		default: // the log's flusher hardens it; outcome intentionally unobserved
			return nil
		}
	}
	return db.engine.CommitCtx(ctx, inner)
}

// Commit commits the transaction. Under DurabilityStrict (the default)
// it returns only once the commit record is durable (group commit).
// Under DurabilityRelaxed it may return as soon as the transaction is
// pre-committed, with hardening left to the log's flusher; immediately
// surfaced errors are still reported.
//
// If the transaction's context is cancelled during the durability wait,
// Commit returns ErrCanceled and the transaction is in doubt: its commit
// record is in the log, so it can no longer abort — call Commit again to
// resume waiting (the record is not re-inserted), or call Abort to walk
// away: it refuses, and leaves the commit to finish in the background.
func (t *Tx) Commit() error {
	if t.managed {
		return ErrManaged
	}
	if t.done {
		return ErrTxDone
	}
	ctx := t.ctx
	if t.inner.State() == tx.StateCommitting && ctx.Err() != nil {
		// Explicit retry after a cancelled wait: the caller wants the
		// commit finished, and the original context can never allow it.
		ctx = context.Background()
	}
	err := t.db.commitInner(ctx, t.inner)
	if err != nil {
		switch t.inner.State() {
		case tx.StateCommitting:
			// In doubt: leave the Tx open so the caller can retry the wait.
			return err
		case tx.StateActive:
			// Never reached the commit record (e.g. the fail-fast on an
			// already-dead context): still abortable — leave the Tx open
			// so the caller's usual Abort-on-error releases the locks.
			return err
		}
	}
	t.done = true
	return err
}

// CommitAsync pre-commits the transaction and returns a channel that
// fires exactly once when the commit record is durable (nil) or the
// commit failed (error). With StagePipeline the transaction's locks are
// already released when CommitAsync returns, so other transactions can
// proceed against its writes before durability — the engine orders their
// own commit acknowledgments behind this one. Until the channel fires,
// the commit is NOT guaranteed to survive a crash; callers needing the
// classical guarantee must wait on the channel (or use Commit).
func (t *Tx) CommitAsync() (<-chan error, error) {
	if t.managed {
		return nil, ErrManaged
	}
	if t.done {
		return nil, ErrTxDone
	}
	t.done = true // also when the commit record could not be logged: the engine rolled it back
	return t.db.engine.CommitAsync(t.inner), nil
}

// Abort rolls the transaction back. Abort always runs to completion,
// even when the transaction's context is already cancelled — rollback is
// what restores consistency.
//
// The one transaction Abort cannot roll back is an in-doubt commit (a
// Commit whose durability wait was interrupted): its commit record is in
// the log and may harden. Abort then returns ErrCommitting, and since the
// Tx is finished for the caller either way, the engine completes the
// commit in the background — its locks are released when the flush lands.
func (t *Tx) Abort() error {
	if t.managed {
		return ErrManaged
	}
	if t.done {
		return ErrTxDone
	}
	t.done = true
	err := t.db.engine.Abort(t.inner)
	if errors.Is(err, ErrCommitting) {
		t.db.engine.CommitDetached(t.inner)
	}
	return err
}

// Call runs the program registered under id (core.Engine.RegisterProgram)
// on t, with t's context, and returns what it appended to out. An unknown
// id is ErrNotFound; a program that is not ReadOnly, called in a View
// transaction, is ErrReadOnly.
func (db *DB) Call(t *Tx, id uint32, args, out []byte) ([]byte, error) {
	if t.done {
		return out, ErrTxDone
	}
	p, ok := db.engine.Program(id)
	if !ok {
		return out, fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	if t.readonly && !p.ReadOnly {
		return out, fmt.Errorf("%w: program %d writes", ErrReadOnly, id)
	}
	return p.Run(t.ctx, t.inner, args, out)
}

// Table is a heap table handle.
type Table struct {
	db    *DB
	store uint32
}

// CreateTable creates a heap table inside transaction t. Like
// CreateIndex, the store registration itself is not undone by abort;
// creation is durable once t commits, with or without rows (table
// metadata is derived from page headers: the table's first page is
// formatted under t).
func (db *DB) CreateTable(t *Tx) (*Table, error) {
	if t.done {
		return nil, ErrTxDone
	}
	if t.readonly {
		return nil, ErrReadOnly
	}
	store, err := db.engine.CreateTable(t.inner)
	if err != nil {
		return nil, err
	}
	return &Table{db: db, store: store}, nil
}

// OpenTable attaches to a table by store id.
func (db *DB) OpenTable(store uint32) *Table { return &Table{db: db, store: store} }

// ID returns the table's store id (stable across restarts).
func (tb *Table) ID() uint32 { return tb.store }

// Insert appends a record, returning its RID.
func (tb *Table) Insert(t *Tx, data []byte) (RID, error) {
	if t.done {
		return RID{}, ErrTxDone
	}
	if t.readonly {
		return RID{}, ErrReadOnly
	}
	return tb.db.engine.HeapInsertCtx(t.ctx, t.inner, tb.store, data)
}

// Get reads the record at rid (S-locked until commit).
func (tb *Table) Get(t *Tx, rid RID) ([]byte, error) {
	if t.done {
		return nil, ErrTxDone
	}
	return tb.db.engine.HeapReadCtx(t.ctx, t.inner, tb.store, rid)
}

// Update replaces the record at rid.
func (tb *Table) Update(t *Tx, rid RID, data []byte) error {
	if t.done {
		return ErrTxDone
	}
	if t.readonly {
		return ErrReadOnly
	}
	return tb.db.engine.HeapUpdateCtx(t.ctx, t.inner, tb.store, rid, data)
}

// Delete removes the record at rid.
func (tb *Table) Delete(t *Tx, rid RID) error {
	if t.done {
		return ErrTxDone
	}
	if t.readonly {
		return ErrReadOnly
	}
	return tb.db.engine.HeapDeleteCtx(t.ctx, t.inner, tb.store, rid)
}

// Scan iterates all records in RID order under a table S lock; fn
// receives a copy of each record and stops the scan by returning false.
func (tb *Table) Scan(t *Tx, fn func(rid RID, rec []byte) bool) error {
	if t.done {
		return ErrTxDone
	}
	return tb.db.engine.HeapScanCtx(t.ctx, t.inner, tb.store, fn)
}

// Index is a B-tree index handle.
type Index struct {
	db    *DB
	inner *core.Index
}

// CreateIndex creates a B-tree index inside transaction t.
func (db *DB) CreateIndex(t *Tx) (*Index, error) {
	if t.done {
		return nil, ErrTxDone
	}
	if t.readonly {
		return nil, ErrReadOnly
	}
	ix, err := db.engine.CreateIndex(t.inner)
	if err != nil {
		return nil, err
	}
	return &Index{db: db, inner: ix}, nil
}

// OpenIndex attaches to an index by store id.
func (db *DB) OpenIndex(store uint32) (*Index, error) {
	ix, err := db.engine.OpenIndex(store)
	if err != nil {
		return nil, err
	}
	return &Index{db: db, inner: ix}, nil
}

// ID returns the index's store id (stable across restarts).
func (ix *Index) ID() uint32 { return ix.inner.Store() }

// Insert adds key→value; ErrDuplicate if the key exists.
func (ix *Index) Insert(t *Tx, key, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	if t.readonly {
		return ErrReadOnly
	}
	err := ix.db.engine.IndexInsertCtx(t.ctx, t.inner, ix.inner, key, value)
	return mapBtreeErr(err)
}

// Get returns the value for key.
func (ix *Index) Get(t *Tx, key []byte) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxDone
	}
	return ix.db.engine.IndexLookupCtx(t.ctx, t.inner, ix.inner, key)
}

// GetForUpdate returns the value for key under an exclusive lock —
// SELECT FOR UPDATE. Use it when the transaction will write the key
// back later: reading under S and upgrading to X at write time
// deadlocks against any concurrent reader doing the same, and the
// longer the read-to-write window the more certain the collision.
func (ix *Index) GetForUpdate(t *Tx, key []byte) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxDone
	}
	if t.readonly {
		return nil, false, ErrReadOnly
	}
	return ix.db.engine.IndexLookupForUpdateCtx(t.ctx, t.inner, ix.inner, key)
}

// Update replaces the value for key; ErrNotFound if absent.
func (ix *Index) Update(t *Tx, key, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	if t.readonly {
		return ErrReadOnly
	}
	return mapBtreeErr(ix.db.engine.IndexUpdateCtx(t.ctx, t.inner, ix.inner, key, value))
}

// Delete removes key, returning the old value; ErrNotFound if absent.
func (ix *Index) Delete(t *Tx, key []byte) ([]byte, error) {
	if t.done {
		return nil, ErrTxDone
	}
	if t.readonly {
		return nil, ErrReadOnly
	}
	old, err := ix.db.engine.IndexDeleteCtx(t.ctx, t.inner, ix.inner, key)
	return old, mapBtreeErr(err)
}

// Scan iterates keys in [from, to) ascending (nil = unbounded) under a
// store S lock; fn stops the scan by returning false.
func (ix *Index) Scan(t *Tx, from, to []byte, fn func(key, value []byte) bool) error {
	if t.done {
		return ErrTxDone
	}
	return ix.db.engine.IndexScanCtx(t.ctx, t.inner, ix.inner, from, to, fn)
}

func mapBtreeErr(err error) error {
	switch {
	case err == nil:
		return nil
	case isBtreeDup(err):
		return fmt.Errorf("%w: %v", ErrDuplicate, err)
	case isBtreeNotFound(err):
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	default:
		return err
	}
}
