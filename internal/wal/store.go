package wal

import "errors"

// Store is the durable backing of the log: an append-mostly byte store
// with an explicit durability boundary, so tests can crash the system and
// observe exactly the flushed prefix surviving. SegmentStore is the one
// implementation, over a directory or over memory; what wraps it (a test's
// gate, the benchmark's device shim) embeds this interface.
//
// The invariant a store must keep, and recovery relies on: every byte
// below Horizon() was written and synced; a failed Flush changes nothing
// observable (DurableSize stays; what the device did take before the
// failure — a sync, a seal — is true and Horizon may say so).
// TestStoreProperty holds both backends to it with random scripts and
// TestFailedFlushChangesNothing fails each device call of a Flush in turn.
// The manager's half (ringLog.drain, the only caller of WriteAt and Flush
// on a live log): it writes a byte before it asks for it to be synced,
// never rewrites a byte the store already holds, and after a failed
// WriteAt or Flush never calls either again.
type Store interface {
	// WriteAt stores b at off in the volatile layer.
	WriteAt(b []byte, off int64) error
	// Flush makes everything below upTo durable.
	Flush(upTo int64) error
	// ReadAt reads from the store (volatile layer included, as a live
	// system reading its own tail would). Returns io.EOF semantics like
	// io.ReaderAt.
	ReadAt(b []byte, off int64) (int, error)
	// DurableSize returns the durability boundary.
	DurableSize() int64
	// Size returns the volatile high-water mark.
	Size() int64
	// Horizon returns the conservative durable floor that is provable
	// after a crash: every byte below it was certainly made durable (by
	// the last checkpoint's master record or a sealed segment header). A
	// record that fails its CRC below Horizon is corruption; at or above
	// it, an expected torn tail.
	Horizon() LSN
	// Truncate discards everything at and beyond size, clipping a torn
	// tail so subsequent inserts extend a fully valid log.
	Truncate(size int64) error
	// SetMaster durably records the master LSN (last completed checkpoint).
	SetMaster(l LSN) error
	// Master returns the master LSN.
	Master() (LSN, error)
	// Crash drops all volatile state, simulating power loss. The store
	// value afterwards is what reopening the device would load: go on
	// with it, as recovery would.
	Crash()
	// Close releases resources.
	Close() error
}

// Archiver is implemented by stores that can discard old log segments.
// The engine type-asserts for it at checkpoint time.
type Archiver interface {
	// ArchiveBelow removes sealed segments wholly below lsn and returns
	// how many were removed.
	ArchiveBelow(lsn LSN) (int, error)
}

// ErrInjectedFlush is returned by Flush after FailFlushes arms fsync
// failure injection.
var ErrInjectedFlush = errors.New("wal: injected flush failure")

// NewMemStore returns a default-sized memory store behind the bare Store
// interface, which hides ArchiveBelow: an engine over it keeps its whole
// log. The benchmark's device-shim tests ask for exactly that.
func NewMemStore() Store { return struct{ Store }{NewMemSegmentStore(0)} }
