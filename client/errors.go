package client

import (
	"errors"

	"repro/internal/wire"
)

// Sentinel errors. Test with errors.Is; the concrete error carries the
// server's message. A sentinel named after a status is that status, so
// Retryable reads the one status table in internal/wire.
var (
	// ErrBusy is wire.StatusBusy: the admission queue was full and the
	// server shed the request instead of absorbing it. The unit of work
	// was NOT started; back off and retry.
	ErrBusy error = wire.StatusBusy
	// ErrDeadlock is wire.StatusDeadlock: the transaction was chosen as a
	// deadlock victim and rolled back; retry the whole unit of work.
	ErrDeadlock error = wire.StatusDeadlock
	// ErrTimeout is wire.StatusTimeout: a lock wait exceeded the server's
	// bound; the transaction was rolled back. Retryable.
	ErrTimeout error = wire.StatusTimeout
	// ErrCanceled is wire.StatusCanceled: the operation was abandoned
	// server-side (a forced shutdown or context cancellation); the
	// transaction was rolled back.
	ErrCanceled error = wire.StatusCanceled
	// ErrDuplicate is wire.StatusDuplicate: index insert on an existing key.
	ErrDuplicate error = wire.StatusDuplicate
	// ErrNotFound is wire.StatusNotFound: index update/delete on a missing
	// key, an unresolvable catalog name, an unknown program id or a store
	// id that names no table or index.
	ErrNotFound error = wire.StatusNotFound
	// ErrNoRecord is wire.StatusNoRecord: heap access to a dead RID.
	ErrNoRecord error = wire.StatusNoRecord
	// ErrReadOnly is wire.StatusReadOnly: a write inside a View batch,
	// snapshot or not.
	ErrReadOnly error = wire.StatusReadOnly
	// ErrTxOpen is wire.StatusTxOpen: Begin (or a managed batch) while the
	// session already has an explicit transaction.
	ErrTxOpen error = wire.StatusTxOpen
	// ErrNoTx is wire.StatusNoTx: an op or Commit/Rollback without an open
	// transaction.
	ErrNoTx error = wire.StatusNoTx
	// ErrProto is wire.StatusProto: the server rejected the request as
	// malformed.
	ErrProto error = wire.StatusProto
	// ErrTooLarge is wire.StatusTooLarge: a request, or the answer it asked
	// for, exceeded the protocol's size cap.
	ErrTooLarge error = wire.StatusTooLarge
	// ErrClosing is wire.StatusClosing: the server is draining and refuses
	// new transactions, or the engine behind it is closed or crashed
	// (shoremt.ErrClosed). Not retryable on this server.
	ErrClosing error = wire.StatusClosing
	// ErrBadSession is wire.StatusBadSession: session id mismatch
	// (handshake skipped?).
	ErrBadSession error = wire.StatusBadSession
	// ErrRolledBack is wire.StatusRolledBack: a program rolled its
	// transaction back on purpose (the server's shoremt.ErrRollback). Not
	// retryable: the same arguments would roll back again.
	ErrRolledBack error = wire.StatusRolledBack
	// ErrTxDone: use of a finished Tx handle (no status: the client
	// refuses it itself).
	ErrTxDone = errors.New("client: transaction already finished")
	// ErrClosed: use of a closed Client (no status: the client refuses it
	// itself).
	ErrClosed = errors.New("client: connection closed")
)

// Error is the concrete error for non-OK responses. It unwraps to its
// Status, which is the sentinel (wire.StatusErr when the server's error has
// none: device I/O, corruption).
type Error struct {
	Status  wire.Status
	Aborted bool // server rolled the session transaction back
	Message string
}

// Error formats the server's report.
func (e *Error) Error() string { return "client: " + e.Status.String() + ": " + e.Message }

// Unwrap exposes the status for errors.Is.
func (e *Error) Unwrap() error { return e.Status }

// IsAborted reports whether err carries the server's tx-aborted flag:
// the session's open transaction was rolled back while producing the
// error (deadlock victim, timeout, failed commit-bound batch), so the
// client must not Rollback and can immediately retry the whole unit of
// work.
func IsAborted(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Aborted
}

// Retryable reports errors after which re-running the whole unit of
// work is the right move: the statuses wire's table marks retryable
// (deadlock victims, lock timeouts and shed requests).
func Retryable(err error) bool {
	var s wire.Status
	return errors.As(err, &s) && s.Retryable()
}
