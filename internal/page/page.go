// Package page implements the 8 KiB slotted page that every other storage
// component operates on: a fixed header (page id, page LSN, type, owning
// store), a slot directory, and a record heap.
//
// Two slot disciplines coexist on the same layout:
//
//   - Heap pages (tables) use Insert/Delete with tombstoned slots so that a
//     record's RID (page id, slot) stays stable for its lifetime.
//   - Index pages (B-tree nodes) use InsertAt/RemoveAt, which shift the slot
//     directory to keep entries physically ordered by key.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the fixed page size in bytes.
const Size = 8192

// Header layout (little endian):
//
//	off 0  : PID        (8 bytes)
//	off 8  : page LSN   (8 bytes)
//	off 16 : type       (2 bytes)
//	off 18 : store id   (4 bytes)
//	off 22 : slot count (2 bytes)
//	off 24 : heap top   (2 bytes)  lowest record byte offset
//	off 26 : reserved   (2 bytes)
//	off 28 : checksum   (4 bytes)
const (
	offPID      = 0
	offLSN      = 8
	offType     = 16
	offStore    = 18
	offNSlots   = 22
	offHeapTop  = 24
	offChecksum = 28
	headerSize  = 32

	slotSize = 4 // 2 bytes record offset + 2 bytes record length
)

// MaxRecordSize is the largest record that fits on an empty page.
const MaxRecordSize = Size - headerSize - slotSize

// ID identifies a page within a volume. IDs fit in 40 bits so they can be
// indexed by the cuckoo table.
type ID uint64

// InvalidID is the zero, never-allocated page ID.
const InvalidID ID = 0

// String formats the ID.
func (id ID) String() string { return fmt.Sprintf("pg%d", uint64(id)) }

// Type tags what a page stores.
type Type uint16

// Page types.
const (
	TypeFree   Type = iota // unallocated
	TypeHeap               // table records
	TypeBTree              // index node
	TypeExtent             // free-space map
	TypeMeta               // store directory / metadata
)

// String names the page type.
func (t Type) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeHeap:
		return "heap"
	case TypeBTree:
		return "btree"
	case TypeExtent:
		return "extent"
	case TypeMeta:
		return "meta"
	default:
		return fmt.Sprintf("type%d", uint16(t))
	}
}

// RID is a record identifier: page plus slot.
type RID struct {
	Page ID
	Slot uint16
}

// String formats the RID.
func (r RID) String() string { return fmt.Sprintf("%v:%d", r.Page, r.Slot) }

// Errors returned by page operations.
var (
	ErrPageFull   = errors.New("page: not enough free space")
	ErrBadSlot    = errors.New("page: slot out of range or deleted")
	ErrBadRange   = errors.New("page: byte range outside the record")
	ErrTooLarge   = errors.New("page: record exceeds maximum size")
	ErrCorrupt    = errors.New("page: checksum mismatch")
	ErrWrongSize  = errors.New("page: buffer is not page.Size bytes")
	ErrEmptyInput = errors.New("page: record must not be empty")
)

// Page wraps a Size-byte buffer. The zero value is unusable; call Init or
// Wrap.
type Page struct {
	b []byte
}

// Wrap adopts buf (must be Size bytes) without initializing it.
func Wrap(buf []byte) (*Page, error) {
	if len(buf) != Size {
		return nil, ErrWrongSize
	}
	return &Page{b: buf}, nil
}

// New allocates a fresh, initialized page.
func New(pid ID, t Type, store uint32) *Page {
	p := &Page{b: make([]byte, Size)}
	p.Init(pid, t, store)
	return p
}

// Init formats the buffer as an empty page.
func (p *Page) Init(pid ID, t Type, store uint32) {
	for i := range p.b {
		p.b[i] = 0
	}
	binary.LittleEndian.PutUint64(p.b[offPID:], uint64(pid))
	binary.LittleEndian.PutUint16(p.b[offType:], uint16(t))
	binary.LittleEndian.PutUint32(p.b[offStore:], store)
	p.setHeapTop(Size)
}

// Bytes returns the underlying buffer (aliased, not copied).
func (p *Page) Bytes() []byte { return p.b }

// PID returns the page id stored in the header.
func (p *Page) PID() ID { return ID(binary.LittleEndian.Uint64(p.b[offPID:])) }

// SetPID stores the page id.
func (p *Page) SetPID(id ID) { binary.LittleEndian.PutUint64(p.b[offPID:], uint64(id)) }

// LSN returns the page LSN (the LSN of the last log record applied).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.b[offLSN:]) }

// SetLSN stores the page LSN.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.b[offLSN:], lsn) }

// Type returns the page type.
func (p *Page) Type() Type { return Type(binary.LittleEndian.Uint16(p.b[offType:])) }

// SetType stores the page type.
func (p *Page) SetType(t Type) { binary.LittleEndian.PutUint16(p.b[offType:], uint16(t)) }

// Store returns the owning store (table/index) id.
func (p *Page) Store() uint32 { return binary.LittleEndian.Uint32(p.b[offStore:]) }

// SetStore stores the owning store id.
func (p *Page) SetStore(s uint32) { binary.LittleEndian.PutUint32(p.b[offStore:], s) }

// NumSlots returns the size of the slot directory, including tombstones.
func (p *Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p.b[offNSlots:])) }

func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.b[offNSlots:], uint16(n)) }

func (p *Page) heapTop() int { return int(binary.LittleEndian.Uint16(p.b[offHeapTop:])) }

func (p *Page) setHeapTop(v int) {
	// Size itself (8192) overflows uint16; store 0 to mean "empty heap".
	binary.LittleEndian.PutUint16(p.b[offHeapTop:], uint16(v%Size))
}

func (p *Page) heapTopAbs() int {
	v := p.heapTop()
	if v == 0 {
		return Size
	}
	return v
}

// slot accessors -----------------------------------------------------------

func (p *Page) slotPos(i int) int { return headerSize + i*slotSize }

func (p *Page) slot(i int) (off, length int) {
	s := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.b[s:])), int(binary.LittleEndian.Uint16(p.b[s+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	s := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.b[s:], uint16(off))
	binary.LittleEndian.PutUint16(p.b[s+2:], uint16(length))
}

// FreeSpace returns the bytes available for a new record including its slot.
func (p *Page) FreeSpace() int {
	free := p.heapTopAbs() - (headerSize + p.NumSlots()*slotSize)
	if free < 0 {
		return 0
	}
	return free
}

// Gap returns where the free gap between the slot directory and the record
// heap starts and how long it is: FreeSpace bytes that hold nothing.
func (p *Page) Gap() (off, n int) {
	return min(headerSize+p.NumSlots()*slotSize, Size), p.FreeSpace()
}

// CanFit reports whether a record of n bytes fits (using a fresh slot).
func (p *Page) CanFit(n int) bool { return p.FreeSpace() >= n+slotSize }

// Insert appends data as a new record, reusing a tombstoned slot if one
// exists, and returns the slot number. Heap-page discipline.
func (p *Page) Insert(data []byte) (uint16, error) {
	if err := checkSize(len(data)); err != nil {
		return 0, err
	}
	// Reuse a tombstone if available (no new slot space needed).
	n := p.NumSlots()
	reuse := -1
	for i := 0; i < n; i++ {
		if off, _ := p.slot(i); off == 0 {
			reuse = i
			break
		}
	}
	need := len(data)
	if reuse < 0 {
		need += slotSize
	}
	if p.FreeSpace() < need {
		return 0, ErrPageFull
	}
	top := p.heapTopAbs() - len(data)
	copy(p.b[top:], data)
	p.setHeapTop(top)
	if reuse >= 0 {
		p.setSlot(reuse, top, len(data))
		return uint16(reuse), nil
	}
	p.setSlot(n, top, len(data))
	p.setNumSlots(n + 1)
	return uint16(n), nil
}

// PlaceAt stores data into the specific heap slot i, extending the slot
// directory with tombstones if needed. It is the deterministic redo
// counterpart of Insert: replaying a logged insert must land in the same
// slot. The slot must be empty (tombstone or beyond the directory).
func (p *Page) PlaceAt(i int, data []byte) error {
	if err := p.CheckPlaceAt(i, len(data)); err != nil {
		return err
	}
	n := p.NumSlots()
	for j := n; j <= i; j++ {
		p.setSlot(j, 0, 0)
	}
	if i >= n {
		p.setNumSlots(i + 1)
	}
	top := p.heapTopAbs() - len(data)
	copy(p.b[top:], data)
	p.setHeapTop(top)
	p.setSlot(i, top, len(data))
	return nil
}

// CheckPlaceAt reports the error PlaceAt would return for a record of
// size bytes in slot i, without touching the page.
func (p *Page) CheckPlaceAt(i, size int) error {
	if err := checkSize(size); err != nil {
		return err
	}
	if i < 0 || i >= (Size-headerSize)/slotSize {
		return ErrBadSlot
	}
	n := p.NumSlots()
	if i < n {
		if off, _ := p.slot(i); off != 0 {
			return ErrBadSlot // occupied
		}
	}
	need := size
	if i >= n {
		need += (i + 1 - n) * slotSize
	}
	if p.FreeSpace() < need {
		return ErrPageFull
	}
	return nil
}

// checkSize rejects a record size no page can hold.
func checkSize(size int) error {
	if size == 0 {
		return ErrEmptyInput
	}
	if size > MaxRecordSize {
		return ErrTooLarge
	}
	return nil
}

// InsertAt inserts data as a new record at slot index i, shifting later
// slots right. Index-page discipline (keeps slots sorted).
func (p *Page) InsertAt(i int, data []byte) error {
	if err := p.CheckInsertAt(i, len(data)); err != nil {
		return err
	}
	n := p.NumSlots()
	top := p.heapTopAbs() - len(data)
	copy(p.b[top:], data)
	p.setHeapTop(top)
	// Shift slots [i, n) right by one.
	copy(p.b[p.slotPos(i+1):p.slotPos(n+1)], p.b[p.slotPos(i):p.slotPos(n)])
	p.setSlot(i, top, len(data))
	p.setNumSlots(n + 1)
	return nil
}

// CheckInsertAt reports the error InsertAt would return for a record of
// size bytes at slot index i, without touching the page.
func (p *Page) CheckInsertAt(i, size int) error {
	if err := checkSize(size); err != nil {
		return err
	}
	if i < 0 || i > p.NumSlots() {
		return ErrBadSlot
	}
	if p.FreeSpace() < size+slotSize {
		return ErrPageFull
	}
	return nil
}

// Record returns the record stored in slot i (aliased, not copied).
// Every bound is checked against the page size rather than trusted:
// optimistic (latch-free) readers may call Record on a page image that a
// concurrent writer is mutating, so a torn slot directory must surface
// as ErrBadSlot — never as an out-of-range panic. Callers validate their
// latch version afterwards and discard the result on mismatch.
func (p *Page) Record(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	if p.slotPos(i)+slotSize > len(p.b) {
		return nil, ErrBadSlot
	}
	off, length := p.slot(i)
	if off < headerSize || off+length > len(p.b) {
		return nil, ErrBadSlot
	}
	return p.b[off : off+length], nil
}

// Delete tombstones slot i, keeping later slot numbers stable. The record
// bytes become dead space until Compact runs. Heap-page discipline.
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.NumSlots() {
		return ErrBadSlot
	}
	if off, _ := p.slot(i); off == 0 {
		return ErrBadSlot
	}
	p.setSlot(i, 0, 0)
	// Shrink the directory if the tail slots are all tombstones.
	n := p.NumSlots()
	for n > 0 {
		if off, _ := p.slot(n - 1); off != 0 {
			break
		}
		n--
	}
	p.setNumSlots(n)
	return nil
}

// RemoveAt removes slot i, shifting later slots left. Index-page
// discipline.
func (p *Page) RemoveAt(i int) error {
	n := p.NumSlots()
	if i < 0 || i >= n {
		return ErrBadSlot
	}
	copy(p.b[p.slotPos(i):p.slotPos(n-1)], p.b[p.slotPos(i+1):p.slotPos(n)])
	p.setNumSlots(n - 1)
	return nil
}

// Update replaces the record in slot i. If the new data does not fit in the
// old location it is relocated within the page; ErrPageFull is returned if
// there is no room.
func (p *Page) Update(i int, data []byte) error {
	if len(data) == 0 {
		return ErrEmptyInput
	}
	if i < 0 || i >= p.NumSlots() {
		return ErrBadSlot
	}
	off, length := p.slot(i)
	if off == 0 {
		return ErrBadSlot
	}
	if len(data) <= length {
		copy(p.b[off:], data)
		p.setSlot(i, off, len(data))
		return nil
	}
	if p.FreeSpace() < len(data) {
		// Try compaction: the old record's space is reclaimed too.
		p.Compact()
		off, length = p.slot(i)
		if p.FreeSpace()+length < len(data) {
			return ErrPageFull
		}
		// Drop the old copy, then re-add below.
	}
	p.setSlot(i, 0, 0)
	p.Compact()
	top := p.heapTopAbs() - len(data)
	if top < headerSize+p.NumSlots()*slotSize {
		return ErrPageFull
	}
	copy(p.b[top:], data)
	p.setHeapTop(top)
	p.setSlot(i, top, len(data))
	return nil
}

// Splice replaces the del bytes at off of the record in slot i by ins. An
// equal-length splice copies only ins, a shrinking one closes the gap in
// place, and a growing one relocates the record as Update does.
func (p *Page) Splice(i, off, del int, ins []byte) error {
	if err := p.CheckSplice(i, off, del, len(ins)); err != nil {
		return err
	}
	start, length := p.slot(i)
	tail := p.b[start+off+del : start+length]
	switch size := length - del + len(ins); {
	case len(ins) == del:
		copy(p.b[start+off:], ins)
	case size < length:
		copy(p.b[start+off+len(ins):], tail)
		copy(p.b[start+off:], ins)
		p.setSlot(i, start, size)
	default:
		rec := make([]byte, 0, size)
		rec = append(append(append(rec, p.b[start:start+off]...), ins...), tail...)
		return p.Update(i, rec)
	}
	return nil
}

// CheckSplice reports the error Splice would return for ins inserted
// bytes, without touching the page: the slot is live, the range lies
// inside its record, and the record that results fits.
func (p *Page) CheckSplice(i, off, del, ins int) error {
	if i < 0 || i >= p.NumSlots() {
		return ErrBadSlot
	}
	start, length := p.slot(i)
	if start == 0 {
		return ErrBadSlot
	}
	if off < 0 || del < 0 || ins < 0 || off+del > length {
		return ErrBadRange
	}
	size := length - del + ins
	if err := checkSize(size); err != nil {
		return err
	}
	if size <= length || p.FreeSpace() >= size {
		return nil
	}
	// Update compacts before it gives up: count what that would free.
	free := Size - headerSize - p.NumSlots()*slotSize + length
	for j := 0; j < p.NumSlots(); j++ {
		if o, l := p.slot(j); o != 0 {
			free -= l
		}
	}
	if free < size {
		return ErrPageFull
	}
	return nil
}

// Compact rewrites the record heap to squeeze out dead space, preserving
// slot numbers.
func (p *Page) Compact() {
	n := p.NumSlots()
	type rec struct {
		slot, off, length int
	}
	recs := make([]rec, 0, n)
	for i := 0; i < n; i++ {
		if off, length := p.slot(i); off != 0 {
			recs = append(recs, rec{i, off, length})
		}
	}
	// Copy live records into a scratch area ordered by descending offset,
	// then write them back packed against the end of the page.
	scratch := make([]byte, 0, Size-headerSize)
	top := Size
	// Pack from the end: iterate records sorted by current offset descending
	// is unnecessary since we copy via scratch.
	for i := range recs {
		scratch = append(scratch, p.b[recs[i].off:recs[i].off+recs[i].length]...)
	}
	pos := 0
	for i := range recs {
		top -= recs[i].length
		copy(p.b[top:], scratch[pos:pos+recs[i].length])
		p.setSlot(recs[i].slot, top, recs[i].length)
		pos += recs[i].length
	}
	p.setHeapTop(top)
}

// LiveRecords returns the number of non-tombstoned slots.
func (p *Page) LiveRecords() int {
	live := 0
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off != 0 {
			live++
		}
	}
	return live
}

// UpdateChecksum computes and stores the page checksum.
func (p *Page) UpdateChecksum() {
	binary.LittleEndian.PutUint32(p.b[offChecksum:], 0)
	sum := crc32.ChecksumIEEE(p.b)
	binary.LittleEndian.PutUint32(p.b[offChecksum:], sum)
}

// VerifyChecksum reports ErrCorrupt if the stored checksum does not match
// the contents. A page whose stored checksum is zero is treated as
// unchecksummed and passes.
func (p *Page) VerifyChecksum() error {
	stored := binary.LittleEndian.Uint32(p.b[offChecksum:])
	if stored == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(p.b[offChecksum:], 0)
	sum := crc32.ChecksumIEEE(p.b)
	binary.LittleEndian.PutUint32(p.b[offChecksum:], stored)
	if sum != stored {
		return fmt.Errorf("%w: page %v", ErrCorrupt, p.PID())
	}
	return nil
}
