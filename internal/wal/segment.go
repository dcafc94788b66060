package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegmentStore is the log device — the only Store. It rotates the log
// across fixed-size segments while keeping the flat LSN address space every
// manager and recovery path speaks: segment k holds logical bytes
// [k*segBytes, (k+1)*segBytes), at physical offset segHeaderSize past its
// header. The segments live behind a segBackend, a directory or memory;
// everything above that interface, fault injection included, is shared.
//
// Durability discipline:
//
//   - When Flush makes a segment fully durable it is *sealed*: its
//     successor segment is created and synced first, then the sealed flag
//     is written into the header and synced. "Sealed ⇒ successor exists
//     on disk" therefore holds across any crash, which is what lets
//     reopen distinguish a legitimately short log from one whose tail
//     segment was deleted.
//   - Horizon() is max(master LSN, end of the sealed prefix): everything
//     below is provably durable, so a CRC failure there is corruption,
//     not a torn tail.
//   - ArchiveBelow removes sealed segments wholly below the caller's
//     safe point (checkpoint redo floor and oldest active-transaction
//     first LSN), bounding both disk usage and restart scan length.
//   - Every segment file knows how far it has been synced. A Crash keeps
//     that much of each and loads the rest of its state from what is left,
//     with the code that opens a store: it computes no mark of its own.
type SegmentStore struct {
	mu       sync.Mutex
	be       segBackend
	segBytes int64
	segState

	tornKeep   int64 // unsynced bytes the next Crash preserves
	failFlush  int64 // <0: disabled; else successful flushes remaining
	archiveCnt uint64
}

// segState is everything load derives from the backend. Open and Crash
// both start it from zero.
type segState struct {
	segs     map[uint64]*logSegment
	first    uint64 // lowest retained segment index
	last     uint64 // highest segment index
	size     int64  // logical volatile high-water mark
	durable  int64  // logical durability boundary
	sealFrom uint64 // lowest unsealed segment: all below it are sealed or archived
	master   LSN    // cached copy of the backend's master LSN
	loadErr  error  // why load refused what a Crash left; Master reports it
}

// logSegment is one open segment.
type logSegment struct {
	f      segFile
	base   int64
	sealed bool
}

// Segment header layout (48 bytes at the front of every segment file):
//
//	[0:8)   magic "SHORESEG"
//	[8:12)  u32 format version
//	[12:16) u32 flags (bit 0: sealed)
//	[16:24) u64 segment index
//	[24:32) u64 base LSN (index * segment size)
//	[32:40) u64 sealed end LSN (0 while the segment is active)
//	[40:44) u32 crc32 over bytes [0:40)
//	[44:48) padding
const (
	segHeaderSize = 48
	segVersion    = 2 // 2: the record frame of record.go; 1 had a 48-byte header
	segFlagSealed = 1 << 0
	// MinSegmentBytes floors the configurable segment size.
	MinSegmentBytes = 4096
	// DefaultSegmentBytes is a sensible production segment size.
	DefaultSegmentBytes = 64 << 20
)

var segMagic = [8]byte{'S', 'H', 'O', 'R', 'E', 'S', 'E', 'G'}

func encodeSegHeader(idx uint64, base int64, sealed bool, end int64) [segHeaderSize]byte {
	var b [segHeaderSize]byte
	copy(b[0:8], segMagic[:])
	binary.LittleEndian.PutUint32(b[8:], segVersion)
	var flags uint32
	if sealed {
		flags |= segFlagSealed
	}
	binary.LittleEndian.PutUint32(b[12:], flags)
	binary.LittleEndian.PutUint64(b[16:], idx)
	binary.LittleEndian.PutUint64(b[24:], uint64(base))
	binary.LittleEndian.PutUint64(b[32:], uint64(end))
	binary.LittleEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	return b
}

func decodeSegHeader(b []byte) (idx uint64, base int64, sealed bool, err error) {
	if len(b) < segHeaderSize {
		return 0, 0, false, fmt.Errorf("%w: segment header truncated", ErrCorrupt)
	}
	if [8]byte(b[0:8]) != segMagic {
		return 0, 0, false, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(b[:40]) != binary.LittleEndian.Uint32(b[40:]) {
		return 0, 0, false, fmt.Errorf("%w: segment header crc mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != segVersion {
		return 0, 0, false, fmt.Errorf("%w: segment version %d (want %d)", ErrCorrupt, v, segVersion)
	}
	flags := binary.LittleEndian.Uint32(b[12:])
	idx = binary.LittleEndian.Uint64(b[16:])
	base = int64(binary.LittleEndian.Uint64(b[24:]))
	return idx, base, flags&segFlagSealed != 0, nil
}

// NewMemSegmentStore returns an empty memory-backed log store. segBytes is
// the segment size; zero selects DefaultSegmentBytes.
func NewMemSegmentStore(segBytes int64) *SegmentStore {
	s, err := newSegmentStore(newMemSegBackend(), segBytes)
	if err != nil {
		// A fresh memory backend cannot fail validation.
		panic(err)
	}
	return s
}

// OpenSegmentStore opens (or creates) a file-backed log in dir. segBytes is
// the segment size (zero selects DefaultSegmentBytes) and must be the size
// the log was created with. Reopening validates every segment header and
// the chain structure; any inconsistency below the durable horizon refuses
// with ErrCorrupt.
func OpenSegmentStore(dir string, segBytes int64) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	be, err := newFileSegBackend(dir)
	if err != nil {
		return nil, err
	}
	s, err := newSegmentStore(be, segBytes)
	if err != nil {
		be.close()
		return nil, err
	}
	return s, nil
}

func newSegmentStore(be segBackend, segBytes int64) (*SegmentStore, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	s := &SegmentStore{be: be, segBytes: max(segBytes, MinSegmentBytes), failFlush: -1}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load derives the store's state from what the backend holds, and from
// nothing else: an empty log if it holds no segment, else the validated
// chain. OpenSegmentStore runs it and Crash ends with it, so the store a
// crash leaves is by construction the store a reopen would find.
func (s *SegmentStore) load() error {
	s.segState = segState{segs: make(map[uint64]*logSegment)}
	err := s.loadChain()
	if err != nil {
		s.closeSegs()
	}
	return err
}

func (s *SegmentStore) loadChain() error {
	idxs, err := s.be.list()
	if err != nil {
		return err
	}
	if len(idxs) == 0 {
		if _, err := s.createLocked(0); err != nil {
			return err
		}
		if err := s.writeAtLocked(logMagic[:], 0); err != nil {
			return err
		}
		if err := s.segs[0].f.sync(); err != nil {
			return err
		}
		s.durable = logHeaderSize
		return nil
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	s.first, s.last = idxs[0], idxs[len(idxs)-1]
	for i, k := range idxs {
		if k != s.first+uint64(i) {
			return fmt.Errorf("%w: log segment %d missing (have %v)", ErrCorrupt, s.first+uint64(i), idxs)
		}
	}
	// A segment file too short to hold a header can only be the one being
	// created when the crash hit: its creation was never made durable, so
	// nothing in it (or after it) was either. Drop it. Anywhere else it is
	// corruption, caught by the contiguity and seal checks below.
	for i := len(idxs) - 1; i >= 0; i-- {
		k := idxs[i]
		f, err := s.be.open(k)
		if err != nil {
			return err
		}
		if f.size() < segHeaderSize && k == s.last && k > s.first {
			f.close()
			if err := s.be.remove(k); err != nil {
				return err
			}
			s.last--
			continue
		}
		seg := &logSegment{f: f}
		s.segs[k] = seg
		hdr := make([]byte, segHeaderSize)
		if _, err := f.readAt(hdr, 0); err != nil {
			return fmt.Errorf("%w: segment %d header unreadable: %v", ErrCorrupt, k, err)
		}
		idx, base, sealed, err := decodeSegHeader(hdr)
		if err != nil {
			return fmt.Errorf("segment %d: %w", k, err)
		}
		if idx != k || base != int64(k)*s.segBytes {
			return fmt.Errorf("%w: segment %d header claims index %d base %d (segment size mismatch?)",
				ErrCorrupt, k, idx, base)
		}
		seg.base, seg.sealed = base, sealed
	}
	// Seals happen strictly in order, and a sealed segment always has a
	// durable successor. Violations mean the tail (or a middle piece) of
	// the log was lost.
	s.sealFrom = s.first
	for k := s.first; k <= s.last; k++ {
		if s.segs[k].sealed {
			if k != s.sealFrom {
				return fmt.Errorf("%w: segment %d sealed after unsealed segment %d", ErrCorrupt, k, s.sealFrom)
			}
			s.sealFrom = k + 1
		}
	}
	tail := s.segs[s.last]
	if tail.sealed {
		return fmt.Errorf("%w: tail segment %d is sealed — later log segment(s) are missing", ErrCorrupt, s.last)
	}
	s.size = tail.base + (tail.f.size() - segHeaderSize)
	if s.master, err = s.be.master(); err != nil {
		return err
	}
	if int64(s.master) > s.size {
		return fmt.Errorf("%w: master checkpoint %v beyond log end %d — log tail missing", ErrCorrupt, s.master, s.size)
	}
	if first := s.segs[s.first]; first.base > 0 && int64(s.master) < first.base {
		return fmt.Errorf("%w: master checkpoint %v below first retained segment (base %d)", ErrCorrupt, s.master, first.base)
	}
	if s.first == 0 {
		var pre [logHeaderSize]byte
		if _, err := s.readAtLocked(pre[:], 0); err != nil || pre != logMagic {
			return fmt.Errorf("%w: bad log preamble", ErrCorrupt)
		}
	}
	// Whatever is on the device survived, and counts as durable; CheckTail
	// + Truncate clip what fails validation above the horizon.
	s.durable = s.size
	return nil
}

// closeSegs closes every open segment file.
func (s *SegmentStore) closeSegs() error {
	var err error
	for k, seg := range s.segs {
		err = errors.Join(err, seg.f.close())
		delete(s.segs, k)
	}
	return err
}

// createLocked creates segment k (header written and synced immediately,
// so a crash can never leave a durable successor without its own header).
// A creation that fails leaves no file behind.
func (s *SegmentStore) createLocked(k uint64) (*logSegment, error) {
	f, err := s.be.create(k, segHeaderSize+s.segBytes)
	if err != nil {
		return nil, err
	}
	base := int64(k) * s.segBytes
	hdr := encodeSegHeader(k, base, false, 0)
	if err = f.writeAt(hdr[:], 0); err == nil {
		err = f.sync()
	}
	if err != nil {
		f.close()
		_ = s.be.remove(k) // best effort: load drops a headerless tail anyway
		return nil, err
	}
	seg := &logSegment{f: f, base: base}
	if len(s.segs) == 0 {
		s.first = k
	}
	s.last = k // k is 0 on an empty store, else last+1
	s.segs[k] = seg
	return seg, nil
}

// WriteAt implements Store, chunking across segment boundaries and
// creating tail segments on demand.
func (s *SegmentStore) WriteAt(b []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeAtLocked(b, off)
}

func (s *SegmentStore) writeAtLocked(b []byte, off int64) error {
	for len(b) > 0 {
		k := uint64(off / s.segBytes)
		if k < s.first {
			return fmt.Errorf("%w: write at %d below archived log boundary", ErrInvalidLSN, off)
		}
		seg := s.segs[k]
		for seg == nil {
			ns, err := s.createLocked(s.last + 1)
			if err != nil {
				return err
			}
			if ns.base == int64(k)*s.segBytes {
				seg = ns
			}
		}
		n := int64(len(b))
		if room := seg.base + s.segBytes - off; n > room {
			n = room
		}
		if err := seg.f.writeAt(b[:n], segHeaderSize+off-seg.base); err != nil {
			return err
		}
		off += n
		b = b[n:]
		if off > s.size {
			s.size = off
		}
	}
	return nil
}

// ReadAt implements Store. Reads past the end of written data (or into a
// crash-created hole) return io.EOF like io.ReaderAt.
func (s *SegmentStore) ReadAt(b []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readAtLocked(b, off)
}

func (s *SegmentStore) readAtLocked(b []byte, off int64) (int, error) {
	total := 0
	for len(b) > 0 {
		k := uint64(off / s.segBytes)
		if k < s.first {
			return total, fmt.Errorf("%w: read at %d below archived log boundary", ErrInvalidLSN, off)
		}
		seg := s.segs[k]
		if seg == nil {
			return total, io.EOF
		}
		n := int64(len(b))
		if room := seg.base + s.segBytes - off; n > room {
			n = room
		}
		got, err := seg.f.readAt(b[:n], segHeaderSize+off-seg.base)
		total += got
		if err != nil {
			return total, err
		}
		if int64(got) < n {
			return total, io.EOF
		}
		off += n
		b = b[n:]
	}
	return total, nil
}

// Flush implements Store: sync the segments covering (durable, upTo], seal
// every segment this makes fully durable, and only then — nothing left
// that can fail — move the boundary. A Flush that fails has moved nothing
// it did not finish on the device: each seal is recorded as it lands.
func (s *SegmentStore) Flush(upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failFlush >= 0 {
		if s.failFlush == 0 {
			return ErrInjectedFlush
		}
		s.failFlush--
	}
	upTo = min(upTo, s.size)
	if upTo <= s.durable {
		upTo = s.durable
	} else {
		for k := uint64(s.durable / s.segBytes); k <= uint64((upTo-1)/s.segBytes); k++ {
			if seg := s.segs[k]; seg != nil {
				if err := seg.f.sync(); err != nil {
					return err
				}
			}
		}
	}
	for seg := s.segs[s.sealFrom]; seg != nil && seg.base+s.segBytes <= upTo; seg = s.segs[s.sealFrom] {
		if err := s.sealLocked(s.sealFrom, seg); err != nil {
			return err
		}
	}
	s.durable = upTo
	return nil
}

// sealLocked marks fully-durable segment k, the lowest unsealed one,
// sealed. The successor is created (and its header synced) first so the
// sealed⇒successor invariant holds even if the crash lands between the
// two syncs.
func (s *SegmentStore) sealLocked(k uint64, seg *logSegment) error {
	if s.segs[k+1] == nil {
		if _, err := s.createLocked(k + 1); err != nil {
			return err
		}
	}
	hdr := encodeSegHeader(k, seg.base, true, seg.base+s.segBytes)
	if err := seg.f.writeAt(hdr[:], 0); err != nil {
		return err
	}
	if err := seg.f.sync(); err != nil {
		return err
	}
	seg.sealed = true
	s.sealFrom = k + 1
	return nil
}

// DurableSize implements Store.
func (s *SegmentStore) DurableSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// Size implements Store.
func (s *SegmentStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// sealedEnd is the logical end of the sealed prefix. Segments below first
// count: only a sealed segment is ever archived.
func (s *SegmentStore) sealedEnd() int64 { return int64(s.sealFrom) * s.segBytes }

// Horizon implements Store: the durable floor provable after a crash is
// whatever the master checkpoint covers plus every sealed segment.
func (s *SegmentStore) Horizon() LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LSN(max(int64(s.master), s.sealedEnd(), logHeaderSize))
}

// Truncate implements Store: clip a torn tail, dropping any segments that
// lie entirely beyond the new end.
func (s *SegmentStore) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < logHeaderSize {
		return fmt.Errorf("%w: truncate to %d inside preamble", ErrInvalidLSN, size)
	}
	if size < s.sealedEnd() {
		return fmt.Errorf("%w: refusing to truncate to %d below sealed boundary %d", ErrCorrupt, size, s.sealedEnd())
	}
	for s.last > s.first && s.segs[s.last].base >= size {
		if s.segs[s.last-1].sealed {
			break // sealed predecessor keeps its (now empty) successor
		}
		s.segs[s.last].f.close()
		if err := s.be.remove(s.last); err != nil {
			return err
		}
		delete(s.segs, s.last)
		s.last--
	}
	tail := s.segs[s.last]
	if err := tail.f.truncate(segHeaderSize + max(size-tail.base, 0)); err != nil {
		return err
	}
	s.size, s.durable = min(s.size, size), min(s.durable, size)
	return nil
}

// SetMaster implements Store.
func (s *SegmentStore) SetMaster(l LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.be.setMaster(l); err != nil {
		return err
	}
	s.master = l
	return nil
}

// Master implements Store. After a Crash whose reload refused what was
// left, it returns that refusal: Master is the first thing an Open reads
// from a store, so the Open fails as OpenSegmentStore would have.
func (s *SegmentStore) Master() (LSN, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.master, s.loadErr
}

// Crash implements Store: the power is cut. Each segment file keeps what
// it had synced and loses the rest — except, after ArmTornCrash, up to
// that many bytes of the unsynced suffix, in LSN order: a write the disk
// had partly retired. The store's state is then loaded from what is left,
// as a reopen loads it, validation included.
func (s *SegmentStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.tornKeep
	s.tornKeep = 0
	var err error
	for k := s.first; s.segs[k] != nil; k++ {
		f := s.segs[k].f
		take := min(keep, f.size()-f.synced())
		keep -= take
		err = errors.Join(err, f.truncate(f.synced()+take))
	}
	err = errors.Join(err, s.closeSegs())
	if err == nil {
		err = s.load()
	}
	s.loadErr = err
}

// ArmTornCrash makes the next Crash preserve up to keep bytes that were
// written but not synced — a torn tail for recovery to detect and clip.
func (s *SegmentStore) ArmTornCrash(keep int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tornKeep = keep
}

// FailFlushes arms fsync-failure injection: after n more successful
// flushes every Flush returns ErrInjectedFlush. n < 0 disarms.
func (s *SegmentStore) FailFlushes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failFlush = n
}

// ArchiveBelow implements Archiver.
func (s *SegmentStore) ArchiveBelow(lsn LSN) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for s.first < s.last {
		seg := s.segs[s.first]
		if !seg.sealed || seg.base+s.segBytes > int64(lsn) {
			break
		}
		seg.f.close()
		if err := s.be.remove(s.first); err != nil {
			return n, err
		}
		delete(s.segs, s.first)
		s.first++
		n++
		s.archiveCnt++
	}
	return n, nil
}

// SegmentBytes returns the configured segment size.
func (s *SegmentStore) SegmentBytes() int64 { return s.segBytes }

// Segments returns the retained segment index range [first, last].
func (s *SegmentStore) Segments() (first, last uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first, s.last
}

// Archived returns how many segments have been archived over the store's
// lifetime.
func (s *SegmentStore) Archived() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.archiveCnt
}

// Clone copies a memory-backed store's segments and opens the copy, as a
// reopen of a copied device would (for recovery equivalence tests); it
// panics on a file-backed store.
func (s *SegmentStore) Clone() *SegmentStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := newSegmentStore(s.be.(*memSegBackend).clone(), s.segBytes)
	if err != nil {
		panic(fmt.Sprintf("wal: a copy of a live store does not load: %v", err))
	}
	return c
}

// Close implements Store.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.closeSegs(), s.be.close())
}

// segBackend abstracts where segments live (memory or a directory).
type segBackend interface {
	list() ([]uint64, error)
	// create makes segment idx; size is the most it will ever hold.
	create(idx uint64, size int64) (segFile, error)
	open(idx uint64) (segFile, error)
	remove(idx uint64) error
	setMaster(l LSN) error
	master() (LSN, error)
	close() error
}

// segFile is one segment's backing file.
type segFile interface {
	writeAt(b []byte, off int64) error
	readAt(b []byte, off int64) (int, error)
	sync() error
	truncate(n int64) error
	size() int64
	// synced is the prefix a power cut cannot take: what the last sync
	// covered, or what open found on the device.
	synced() int64
	close() error
}

// --- memory backend ---

type memSegBackend struct {
	files     map[uint64]*memSegFile
	masterLSN LSN
}

func newMemSegBackend() *memSegBackend {
	return &memSegBackend{files: make(map[uint64]*memSegFile)}
}

func (b *memSegBackend) list() ([]uint64, error) {
	var idxs []uint64
	for k := range b.files {
		idxs = append(idxs, k)
	}
	return idxs, nil
}

// create allocates a segment of up to 8 MiB whole: a log byte then costs
// one copy into place, never a reallocation of what came before it. A
// larger segment — the default size, under an engine that may log a few
// kilobytes — starts at 64 KiB and doubles.
func (b *memSegBackend) create(idx uint64, size int64) (segFile, error) {
	if size > segHeaderSize+8<<20 {
		size = 64 << 10
	}
	f := &memSegFile{data: make([]byte, 0, size)}
	b.files[idx] = f
	return f, nil
}

// open finds the segment as a restart would: what is there is what
// survived.
func (b *memSegBackend) open(idx uint64) (segFile, error) {
	f, ok := b.files[idx]
	if !ok {
		return nil, fmt.Errorf("wal: segment %d not found", idx)
	}
	f.syncedTo = int64(len(f.data))
	return f, nil
}

func (b *memSegBackend) remove(idx uint64) error {
	delete(b.files, idx)
	return nil
}

func (b *memSegBackend) setMaster(l LSN) error { b.masterLSN = l; return nil }
func (b *memSegBackend) master() (LSN, error)  { return b.masterLSN, nil }
func (b *memSegBackend) close() error          { return nil }

func (b *memSegBackend) clone() *memSegBackend {
	nb := &memSegBackend{files: make(map[uint64]*memSegFile, len(b.files)), masterLSN: b.masterLSN}
	for k, f := range b.files {
		nb.files[k] = &memSegFile{data: append([]byte(nil), f.data...)}
	}
	return nb
}

type memSegFile struct {
	data     []byte
	syncedTo int64
}

func (f *memSegFile) writeAt(b []byte, off int64) error {
	f.data = writeAtGrow(f.data, b, off)
	return nil
}

// writeAtGrow copies b into buf at off and returns buf, extended to cover
// the write. Truncation keeps the old bytes in the capacity, so a hole
// between the old end and off is zeroed: a memory segment must read back
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

func (f *memSegFile) readAt(b []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(b, f.data[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memSegFile) sync() error {
	f.syncedTo = int64(len(f.data))
	return nil
}

func (f *memSegFile) truncate(n int64) error {
	if n < int64(len(f.data)) {
		f.data = f.data[:n]
	}
	f.syncedTo = min(f.syncedTo, n)
	return nil
}

func (f *memSegFile) size() int64   { return int64(len(f.data)) }
func (f *memSegFile) synced() int64 { return f.syncedTo }
func (f *memSegFile) close() error  { return nil }

// --- file backend ---

type fileSegBackend struct {
	dir string
	mf  *os.File // master LSN side file
}

func newFileSegBackend(dir string) (*fileSegBackend, error) {
	m, err := os.OpenFile(filepath.Join(dir, "MASTER"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileSegBackend{dir: dir, mf: m}, nil
}

func segFileName(idx uint64) string { return fmt.Sprintf("%012d.seg", idx) }

func (b *fileSegBackend) list() ([]uint64, error) {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue
		}
		idxs = append(idxs, idx)
	}
	return idxs, nil
}

func (b *fileSegBackend) create(idx uint64, _ int64) (segFile, error) {
	f, err := os.OpenFile(filepath.Join(b.dir, segFileName(idx)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileSegFile{f: f}, nil
}

func (b *fileSegBackend) open(idx uint64) (segFile, error) {
	f, err := os.OpenFile(filepath.Join(b.dir, segFileName(idx)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileSegFile{f: f, sz: st.Size(), syncedTo: st.Size()}, nil
}

func (b *fileSegBackend) remove(idx uint64) error {
	return os.Remove(filepath.Join(b.dir, segFileName(idx)))
}

func (b *fileSegBackend) setMaster(l LSN) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(l))
	if _, err := b.mf.WriteAt(buf[:], 0); err != nil {
		return err
	}
	return b.mf.Sync()
}

func (b *fileSegBackend) master() (LSN, error) {
	var buf [8]byte
	n, err := b.mf.ReadAt(buf[:], 0)
	if err != nil && n == 0 {
		return NullLSN, nil // fresh master file
	}
	return LSN(binary.LittleEndian.Uint64(buf[:])), nil
}

func (b *fileSegBackend) close() error { return b.mf.Close() }

type fileSegFile struct {
	f        *os.File
	sz       int64
	syncedTo int64 // what this process saw synced, or found at open
}

func (f *fileSegFile) writeAt(b []byte, off int64) error {
	if _, err := f.f.WriteAt(b, off); err != nil {
		return err
	}
	if end := off + int64(len(b)); end > f.sz {
		f.sz = end
	}
	return nil
}

func (f *fileSegFile) readAt(b []byte, off int64) (int, error) {
	return f.f.ReadAt(b, off)
}

func (f *fileSegFile) sync() error {
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.syncedTo = f.sz
	return nil
}

func (f *fileSegFile) truncate(n int64) error {
	if n >= f.sz {
		return nil
	}
	if err := f.f.Truncate(n); err != nil {
		return err
	}
	f.sz, f.syncedTo = n, min(f.syncedTo, n)
	return nil
}

func (f *fileSegFile) size() int64   { return f.sz }
func (f *fileSegFile) synced() int64 { return f.syncedTo }
func (f *fileSegFile) close() error  { return f.f.Close() }

var (
	_ Store    = (*SegmentStore)(nil)
	_ Archiver = (*SegmentStore)(nil)
)
