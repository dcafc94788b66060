package shoremt

import (
	"errors"

	"repro/internal/btree"
	"repro/internal/closed"
	"repro/internal/core"
	"repro/internal/lock"
)

// Sentinel errors surfaced by the public API. Test with errors.Is; the
// engine wraps them with per-occurrence detail.
var (
	// ErrDeadlock marks a transaction chosen as a deadlock victim. The
	// transaction has been (or must be) aborted; the whole unit of work
	// can be retried — DB.Update does so automatically.
	ErrDeadlock = lock.ErrDeadlock
	// ErrTimeout marks a lock wait that exceeded Options.LockTimeout.
	// Like ErrDeadlock it is retryable, and DB.Update retries it.
	ErrTimeout = lock.ErrTimeout
	// ErrCanceled marks an operation abandoned because its context was
	// cancelled or its deadline passed. It wraps the context's error, so
	// errors.Is(err, context.Canceled) (or DeadlineExceeded) also holds.
	// Cancellation is not retryable: DB.Update stops and returns it.
	// A cancelled lock wait is dequeued cleanly — FIFO grant order for
	// the waiters behind it is unaffected. A cancelled commit wait leaves
	// the transaction in doubt (see Tx.Commit).
	ErrCanceled = lock.ErrCanceled
	// ErrCommitting is returned by Tx.Abort for an in-doubt commit: the
	// commit record is in the log, so the transaction was NOT rolled back
	// and may yet become durable (see Tx.Abort).
	ErrCommitting = core.ErrCommitting
	// ErrReadOnly is returned by every write method of a transaction
	// running under DB.View.
	ErrReadOnly = errors.New("shoremt: read-only transaction")
	// ErrNoRecord is returned by Table.Get/Update/Delete when the RID
	// does not name a live record.
	ErrNoRecord = core.ErrNoRecord
	// ErrTxDone is returned when using a transaction after Commit/Abort.
	ErrTxDone = errors.New("shoremt: transaction already finished")
	// ErrManaged is returned by Commit/Abort on a transaction whose
	// lifecycle belongs to DB.Update or DB.View: the closure only does
	// the work; committing, aborting and retrying are the engine's job.
	ErrManaged = errors.New("shoremt: transaction lifecycle is managed by Update/View")
	// ErrDuplicate is returned by Index.Insert for an existing key.
	ErrDuplicate = errors.New("shoremt: duplicate key")
	// ErrNotFound is returned by Index.Update/Delete for a missing key,
	// and by DB.Call for a program id nobody registered.
	ErrNotFound = errors.New("shoremt: key not found")
	// ErrRollback is returned by a program (or an Update body) that rolled
	// its own transaction back on purpose. It is not retryable: Update
	// aborts and returns it.
	ErrRollback = core.ErrRollback
	// ErrClosed is what every error of a closed or crashed DB wraps,
	// whichever part of the engine noticed first: the engine, its log, its
	// lock manager (a lock wait ends with it at a crash) or its partition
	// executor. It is not retryable; a server answers it as shutting down.
	ErrClosed = closed.Err
)

// isBtreeDup reports a duplicate-key failure from the index layer.
func isBtreeDup(err error) bool { return errors.Is(err, btree.ErrDuplicateKey) }

// isBtreeNotFound reports a missing-key failure from the index layer.
func isBtreeNotFound(err error) bool { return errors.Is(err, btree.ErrKeyNotFound) }
