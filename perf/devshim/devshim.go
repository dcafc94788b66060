// Package devshim decorates the two device seams the engine accepts as
// interfaces — disk.Volume and wal.Store — so the benchmark can count
// and time device traffic from outside the engine and, for the
// out-of-pool workload, give every page read, page write and log flush
// a fixed service time.
//
// The model is a device with no queue: concurrent operations each sleep
// the service time in parallel. It is armed atomically, so a database
// can be loaded at memory speed and slowed only for the measured run.
package devshim

import (
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// Kind names a device operation.
type Kind uint8

// Device operations that are counted, timed and (when armed) delayed.
const (
	PageRead Kind = iota
	PageWrite
	LogWrite // wal.Store.WriteAt: counted and timed, never delayed
	LogFlush
	numKinds
)

// String names the kind as trace spans do.
func (k Kind) String() string {
	switch k {
	case PageRead:
		return "disk.read"
	case PageWrite:
		return "disk.write"
	case LogWrite:
		return "wal.store_write"
	case LogFlush:
		return "wal.store_flush"
	}
	return "unknown"
}

// Event is one completed device operation, times in nanoseconds on the
// clock passed to New.
type Event struct {
	Kind       Kind
	Start, End int64
	Bytes      int64
}

// Counters is a snapshot of one device's traffic.
type Counters struct {
	Ops    [numKinds]uint64
	BusyNs [numKinds]uint64
	Bytes  [numKinds]uint64
	// Checkpoints counts master-record updates: the engine writes one at
	// the end of every completed checkpoint.
	Checkpoints uint64
}

// Device is the state shared by a wrapped volume and store: the service
// time, the counters and the optional event sink.
type Device struct {
	clock   func() int64
	service atomic.Int64 // nanoseconds; 0 = unarmed
	sink    atomic.Pointer[func(Event)]
	ops     [numKinds]atomic.Uint64
	busy    [numKinds]atomic.Uint64
	bytes   [numKinds]atomic.Uint64
	masters atomic.Uint64
}

// New returns a device whose events are stamped by clock (nanoseconds
// on any monotonic base).
func New(clock func() int64) *Device { return &Device{clock: clock} }

// Arm sets the service time of page reads, page writes and log flushes;
// zero disarms.
func (d *Device) Arm(service time.Duration) { d.service.Store(int64(service)) }

// SetSink routes every completed operation to fn (nil stops). fn runs on
// engine goroutines — flusher, cleaner, a client taking a miss — and
// must be safe for concurrent use.
func (d *Device) SetSink(fn func(Event)) {
	if fn == nil {
		d.sink.Store(nil)
		return
	}
	d.sink.Store(&fn)
}

// Counters snapshots the traffic counters.
func (d *Device) Counters() Counters {
	var c Counters
	for k := range c.Ops {
		c.Ops[k] = d.ops[k].Load()
		c.BusyNs[k] = d.busy[k].Load()
		c.Bytes[k] = d.bytes[k].Load()
	}
	c.Checkpoints = d.masters.Load()
	return c
}

// do runs op as one device operation of the given kind.
func (d *Device) do(k Kind, op func() (bytes int64, err error)) error {
	start := d.clock()
	if s := d.service.Load(); s > 0 && k != LogWrite {
		sleep(time.Duration(s))
	}
	n, err := op()
	end := d.clock()
	d.ops[k].Add(1)
	d.busy[k].Add(uint64(end - start))
	d.bytes[k].Add(uint64(n))
	if fn := d.sink.Load(); fn != nil {
		(*fn)(Event{Kind: k, Start: start, End: end, Bytes: n})
	}
	return err
}

// Volume decorates a disk.Volume.
type Volume struct {
	disk.Volume
	dev *Device
}

// WrapVolume returns inner with its reads and writes run through d.
func (d *Device) WrapVolume(inner disk.Volume) *Volume { return &Volume{Volume: inner, dev: d} }

// Read implements disk.Volume.
func (v *Volume) Read(pid page.ID, buf []byte) error {
	return v.dev.do(PageRead, func() (int64, error) { return int64(len(buf)), v.Volume.Read(pid, buf) })
}

// Write implements disk.Volume.
func (v *Volume) Write(pid page.ID, buf []byte) error {
	return v.dev.do(PageWrite, func() (int64, error) { return int64(len(buf)), v.Volume.Write(pid, buf) })
}

// store decorates a wal.Store.
type store struct {
	wal.Store
	dev *Device
}

func (s *store) WriteAt(b []byte, off int64) error {
	return s.dev.do(LogWrite, func() (int64, error) { return int64(len(b)), s.Store.WriteAt(b, off) })
}

func (s *store) Flush(upTo int64) error {
	return s.dev.do(LogFlush, func() (int64, error) {
		before := s.Store.DurableSize()
		err := s.Store.Flush(upTo)
		return s.Store.DurableSize() - before, err
	})
}

func (s *store) SetMaster(l wal.LSN) error {
	s.dev.masters.Add(1)
	return s.Store.SetMaster(l)
}

// segmented is the contract core and wal/scan.go look for by type
// assertion on a segmented store.
type segmented interface {
	wal.Archiver
	SegmentBytes() int64
}

// segmentedStore forwards the segmented-store methods. Embedding only
// wal.Store would hide them and silently switch log archiving off.
type segmentedStore struct {
	store
	seg segmented
}

func (s *segmentedStore) ArchiveBelow(lsn wal.LSN) (int, error) { return s.seg.ArchiveBelow(lsn) }
func (s *segmentedStore) SegmentBytes() int64                   { return s.seg.SegmentBytes() }

// WrapStore returns inner with its writes and flushes run through d. A
// segmented inner store stays segmented.
func (d *Device) WrapStore(inner wal.Store) wal.Store {
	s := store{Store: inner, dev: d}
	if seg, ok := inner.(segmented); ok {
		return &segmentedStore{store: s, seg: seg}
	}
	return &s
}
