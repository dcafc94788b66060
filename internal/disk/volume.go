// Package disk provides the volume substrate: a flat, page-addressed store
// with memory and file backends and an optional latency model.
//
// The paper's experimental setup keeps I/O off the critical path (4 GB
// buffer pools, log on an in-memory file system); accordingly the default
// backend is memory with zero latency, and the latency wrapper exists for
// tests that need "transaction blocks on I/O while holding a latch"
// behaviour (§2.2.2).
package disk

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/page"
)

// Errors returned by volumes.
var (
	ErrOutOfRange = errors.New("disk: page id beyond volume size")
	ErrClosed     = errors.New("disk: volume closed")
)

// Volume is a page-addressed store. Page IDs start at 1; page 0 is invalid.
// Concurrent Read/Write calls on distinct pages are safe; callers must
// serialize access to the same page (the buffer pool's latches do).
type Volume interface {
	// Read copies page pid into buf (page.Size bytes).
	Read(pid page.ID, buf []byte) error
	// Write copies buf (page.Size bytes) into page pid.
	Write(pid page.ID, buf []byte) error
	// NumPages returns the current size of the volume in pages.
	NumPages() uint64
	// Grow extends the volume by n zeroed pages and returns the ID of the
	// first new page.
	Grow(n int) (page.ID, error)
	// Sync flushes the backend (no-op for memory).
	Sync() error
	// Close releases resources.
	Close() error
}

// Stats counts volume traffic.
type Stats struct {
	Reads, Writes uint64
}

// MemVolume is a memory-backed volume. Like a sparse file, it gives a
// page its bytes at the page's first write: Grow only reserves (it runs
// inside the space manager's allocation critical section), and a page
// never written reads as zeros.
type MemVolume struct {
	mu     sync.RWMutex
	pages  [][]byte // nil: never written
	closed bool
	reads  atomic.Uint64
	writes atomic.Uint64
}

// NewMem creates a memory volume with n initial pages.
func NewMem(n int) *MemVolume {
	v := &MemVolume{}
	if n > 0 {
		if _, err := v.Grow(n); err != nil {
			panic(err) // cannot happen on a fresh open volume
		}
	}
	return v
}

// Read implements Volume.
func (v *MemVolume) Read(pid page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return page.ErrWrongSize
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	i := int(pid) - 1
	if pid == page.InvalidID || i >= len(v.pages) {
		return fmt.Errorf("%w: %v (size %d)", ErrOutOfRange, pid, len(v.pages))
	}
	if copy(buf, v.pages[i]) == 0 {
		clear(buf)
	}
	v.reads.Add(1)
	return nil
}

// Write implements Volume.
func (v *MemVolume) Write(pid page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return page.ErrWrongSize
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	i := int(pid) - 1
	if pid == page.InvalidID || i >= len(v.pages) {
		return fmt.Errorf("%w: %v (size %d)", ErrOutOfRange, pid, len(v.pages))
	}
	if v.pages[i] == nil {
		v.pages[i] = make([]byte, page.Size)
	}
	copy(v.pages[i], buf)
	v.writes.Add(1)
	return nil
}

// NumPages implements Volume.
func (v *MemVolume) NumPages() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return uint64(len(v.pages))
}

// Grow implements Volume.
func (v *MemVolume) Grow(n int) (page.ID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0, ErrClosed
	}
	first := page.ID(len(v.pages) + 1)
	v.pages = append(v.pages, make([][]byte, n)...)
	return first, nil
}

// Sync implements Volume (no-op).
func (v *MemVolume) Sync() error { return nil }

// Clone returns an independent deep copy of the volume (for recovery
// equivalence tests).
func (v *MemVolume) Clone() *MemVolume {
	v.mu.RLock()
	defer v.mu.RUnlock()
	nv := &MemVolume{pages: make([][]byte, len(v.pages))}
	for i, p := range v.pages {
		nv.pages[i] = append([]byte(nil), p...)
	}
	return nv
}

// Close implements Volume.
func (v *MemVolume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
	return nil
}

// Stats returns traffic counters.
func (v *MemVolume) Stats() Stats {
	return Stats{Reads: v.reads.Load(), Writes: v.writes.Load()}
}

// FileVolume is a file-backed volume using positional reads and writes.
type FileVolume struct {
	mu     sync.RWMutex
	f      *os.File
	npages uint64
	closed bool
	reads  atomic.Uint64
	writes atomic.Uint64
}

// OpenFile opens (or creates) a file-backed volume.
func OpenFile(path string) (*FileVolume, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileVolume{f: f, npages: uint64(st.Size()) / page.Size}, nil
}

// Read implements Volume.
func (v *FileVolume) Read(pid page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return page.ErrWrongSize
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	if pid == page.InvalidID || uint64(pid) > v.npages {
		return fmt.Errorf("%w: %v (size %d)", ErrOutOfRange, pid, v.npages)
	}
	if _, err := v.f.ReadAt(buf, int64(pid-1)*page.Size); err != nil {
		return err
	}
	v.reads.Add(1)
	return nil
}

// Write implements Volume.
func (v *FileVolume) Write(pid page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return page.ErrWrongSize
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	if pid == page.InvalidID || uint64(pid) > v.npages {
		return fmt.Errorf("%w: %v (size %d)", ErrOutOfRange, pid, v.npages)
	}
	if _, err := v.f.WriteAt(buf, int64(pid-1)*page.Size); err != nil {
		return err
	}
	v.writes.Add(1)
	return nil
}

// NumPages implements Volume.
func (v *FileVolume) NumPages() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.npages
}

// Grow implements Volume.
func (v *FileVolume) Grow(n int) (page.ID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0, ErrClosed
	}
	first := page.ID(v.npages + 1)
	newSize := int64(v.npages+uint64(n)) * page.Size
	if err := v.f.Truncate(newSize); err != nil {
		return 0, err
	}
	v.npages += uint64(n)
	return first, nil
}

// Sync implements Volume.
func (v *FileVolume) Sync() error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	return v.f.Sync()
}

// Close implements Volume.
func (v *FileVolume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	return v.f.Close()
}

// Stats returns traffic counters.
func (v *FileVolume) Stats() Stats {
	return Stats{Reads: v.reads.Load(), Writes: v.writes.Load()}
}

// Latent wraps a Volume and adds a fixed service time per operation,
// simulating disk latency for tests that need blocking I/O on the critical
// path.
type Latent struct {
	Volume
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// NewLatent wraps v with per-op latencies.
func NewLatent(v Volume, read, write time.Duration) *Latent {
	return &Latent{Volume: v, ReadLatency: read, WriteLatency: write}
}

// Read sleeps for the read latency, then delegates.
func (l *Latent) Read(pid page.ID, buf []byte) error {
	if l.ReadLatency > 0 {
		time.Sleep(l.ReadLatency)
	}
	return l.Volume.Read(pid, buf)
}

// Write sleeps for the write latency, then delegates.
func (l *Latent) Write(pid page.ID, buf []byte) error {
	if l.WriteLatency > 0 {
		time.Sleep(l.WriteLatency)
	}
	return l.Volume.Write(pid, buf)
}

var (
	_ Volume = (*MemVolume)(nil)
	_ Volume = (*FileVolume)(nil)
	_ Volume = (*Latent)(nil)
)
