package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Store is the durable backing of the log: an append-mostly byte store
// with an explicit durability boundary, so tests can crash the system and
// observe exactly the flushed prefix surviving.
//
// The invariant a store must keep, and recovery relies on: every byte
// below Horizon() was written and synced; a failed Flush changes nothing
// observable. The manager's half of it (ringLog.drain, the only caller of
// WriteAt and Flush on a live log): it writes a byte before it asks for it
// to be synced, never rewrites a byte the store already holds, and after
// a failed WriteAt or Flush never calls either again.
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
	// the last checkpoint's master record, a sealed segment header, or —
	// for memory stores — exact durability bookkeeping). A record that
	// fails its CRC below Horizon is corruption; at or above it, an
	// expected torn tail.
	Horizon() LSN
	// Truncate discards everything at and beyond size, clipping a torn
	// tail so subsequent inserts extend a fully valid log.
	Truncate(size int64) error
	// SetMaster durably records the master LSN (last completed checkpoint).
	SetMaster(l LSN) error
	// Master returns the master LSN.
	Master() (LSN, error)
	// Crash drops all volatile state, simulating power loss.
	Crash()
	// Close releases resources.
	Close() error
}

// MemStore is a memory-backed log store with an explicit durable boundary.
type MemStore struct {
	mu      sync.RWMutex
	buf     []byte
	durable int64
	master  LSN
}

// NewMemStore returns an empty memory log store with the log preamble in
// place.
func NewMemStore() *MemStore {
	s := &MemStore{}
	s.buf = append(s.buf, logMagic[:]...)
	s.durable = logHeaderSize
	return s
}

// WriteAt implements Store.
func (s *MemStore) WriteAt(b []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = writeAtGrow(s.buf, b, off)
	return nil
}

// writeAtGrow copies b into buf at off and returns buf, extended to cover
// the write. Truncation keeps the old bytes in the capacity, so a hole
// between the old end and off is zeroed: a memory store must read back
// like a file, where bytes never written are zero. Past the capacity the
// buffer doubles.
func writeAtGrow(buf, b []byte, off int64) []byte {
	old, end := int64(len(buf)), off+int64(len(b))
	switch {
	case end <= old:
	case end <= int64(cap(buf)):
		buf = buf[:end]
		if off > old {
			clear(buf[old:off])
		}
	default:
		grown := make([]byte, end, max(end, 2*int64(cap(buf))))
		copy(grown, buf)
		buf = grown
	}
	copy(buf[off:], b)
	return buf
}

// Flush implements Store.
func (s *MemStore) Flush(upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if upTo > int64(len(s.buf)) {
		upTo = int64(len(s.buf))
	}
	if upTo > s.durable {
		s.durable = upTo
	}
	return nil
}

// ReadAt implements Store.
func (s *MemStore) ReadAt(b []byte, off int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if off >= int64(len(s.buf)) {
		return 0, io.EOF
	}
	n := copy(b, s.buf[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// DurableSize implements Store.
func (s *MemStore) DurableSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.durable
}

// Size implements Store.
func (s *MemStore) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.buf))
}

// SetMaster implements Store.
func (s *MemStore) SetMaster(l LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.master = l
	return nil
}

// Master implements Store.
func (s *MemStore) Master() (LSN, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.master, nil
}

// Horizon implements Store. A memory store tracks durability exactly, so
// the horizon is the durable boundary itself.
func (s *MemStore) Horizon() LSN {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return LSN(s.durable)
}

// Truncate implements Store.
func (s *MemStore) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < logHeaderSize {
		return fmt.Errorf("%w: truncate to %d inside preamble", ErrInvalidLSN, size)
	}
	if size < int64(len(s.buf)) {
		s.buf = s.buf[:size]
	}
	if s.durable > size {
		s.durable = size
	}
	return nil
}

// Crash implements Store: everything beyond the durable boundary vanishes.
func (s *MemStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:s.durable]
}

// CrashTorn simulates power loss mid-write: up to keep bytes beyond the
// durable boundary survive — typically the prefix of a record the OS had
// pushed to disk before the cord was pulled — leaving a torn tail for
// recovery to clip.
func (s *MemStore) CrashTorn(keep int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.durable + keep
	if end > int64(len(s.buf)) {
		end = int64(len(s.buf))
	}
	s.buf = s.buf[:end]
}

// Clone returns an independent deep copy (for recovery equivalence tests).
func (s *MemStore) Clone() *MemStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &MemStore{
		buf:     append([]byte(nil), s.buf...),
		durable: s.durable,
		master:  s.master,
	}
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is a file-backed log store. The durable boundary advances on
// fsync; Crash truncates to it (approximating what a real crash preserves).
type FileStore struct {
	mu      sync.Mutex
	f       *os.File
	master  *os.File
	durable int64
	size    int64
	// synced is the prefix proven durable by a Sync this process issued.
	// Unlike durable — which reopen optimistically seeds with the file
	// size — it never includes bytes merely found on disk, so it is safe
	// to fold into Horizon.
	synced int64
}

// OpenFileStore opens (or creates) a file-backed log at path; the master
// LSN lives in path+".master".
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	m, err := os.OpenFile(path+".master", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		m.Close()
		return nil, err
	}
	s := &FileStore{f: f, master: m, durable: st.Size(), size: st.Size()}
	if st.Size() == 0 {
		if _, err := f.WriteAt(logMagic[:], 0); err != nil {
			f.Close()
			m.Close()
			return nil, err
		}
		s.size = logHeaderSize
		s.durable = logHeaderSize
	}
	return s, nil
}

// WriteAt implements Store.
func (s *FileStore) WriteAt(b []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(b, off); err != nil {
		return err
	}
	if end := off + int64(len(b)); end > s.size {
		s.size = end
	}
	return nil
}

// Flush implements Store.
func (s *FileStore) Flush(upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		return err
	}
	if upTo > s.size {
		upTo = s.size
	}
	if upTo > s.durable {
		s.durable = upTo
	}
	if upTo > s.synced {
		s.synced = upTo
	}
	return nil
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(b []byte, off int64) (int, error) {
	return s.f.ReadAt(b, off)
}

// DurableSize implements Store.
func (s *FileStore) DurableSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// Size implements Store.
func (s *FileStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// SetMaster implements Store.
func (s *FileStore) SetMaster(l LSN) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(l))
	if _, err := s.master.WriteAt(b[:], 0); err != nil {
		return err
	}
	return s.master.Sync()
}

// Master implements Store.
func (s *FileStore) Master() (LSN, error) {
	var b [8]byte
	n, err := s.master.ReadAt(b[:], 0)
	if err != nil && n == 0 {
		return NullLSN, nil // fresh master file
	}
	return LSN(binary.LittleEndian.Uint64(b[:])), nil
}

// Horizon implements Store. After reopening a plain log file nothing
// records how much of it was fsynced, so the only provable floor is the
// master LSN: the checkpoint protocol flushes the log through the
// checkpoint before durably writing master, so every byte below it was
// synced. Within one process lifetime the tracked durable boundary can be
// stronger; take the max.
func (s *FileStore) Horizon() LSN {
	m, err := s.Master()
	if err != nil {
		m = NullLSN
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := int64(m)
	if s.synced > h {
		h = s.synced
	}
	if h < logHeaderSize {
		h = logHeaderSize
	}
	return LSN(h)
}

// Truncate implements Store.
func (s *FileStore) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < logHeaderSize {
		return fmt.Errorf("%w: truncate to %d inside preamble", ErrInvalidLSN, size)
	}
	if size < s.size {
		if err := s.f.Truncate(size); err != nil {
			return err
		}
		s.size = size
	}
	if s.durable > size {
		s.durable = size
	}
	if s.synced > size {
		s.synced = size
	}
	return nil
}

// Crash implements Store: truncate the file to the durable boundary.
func (s *FileStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.f.Truncate(s.durable)
	s.size = s.durable
}

// Close implements Store.
func (s *FileStore) Close() error {
	err1 := s.f.Close()
	err2 := s.master.Close()
	return errors.Join(err1, err2)
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
)
