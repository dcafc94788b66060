package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/page"
)

// Scanner iterates log records in LSN order directly from a Store. It is
// the read path of recovery. At the end of the written log it takes
// readRecordAt's verdict: a torn tail ends the scan cleanly (io.EOF) and
// TornBytes reports what must be clipped; corruption fails it with a
// wrapped ErrCorrupt, and startup must refuse rather than silently
// truncate committed work.
type Scanner struct {
	store Store
	off   int64
	limit int64
	torn  int64
	hdr   [maxHeaderSize]byte // readRecordAt's header scratch
}

// NewScanner scans from LSN `from` (NullLSN means the start of the log)
// to the end of the written log.
func NewScanner(store Store, from LSN) *Scanner {
	return &Scanner{store: store, off: max(int64(from), logHeaderSize), limit: store.Size()}
}

// End returns the offset where the scan stopped: the end of the valid log
// once Next has returned io.EOF.
func (s *Scanner) End() int64 { return s.off }

// TornBytes returns how many trailing bytes were classified as a torn
// tail (valid only after Next returned io.EOF).
func (s *Scanner) TornBytes() int64 { return s.torn }

// errTorn marks a bad record at or above the durable horizon.
var errTorn = errors.New("wal: torn log tail")

// readRecordAt reads the record at off of a log that ends at limit. It is
// the one reader, and the one place that says what the bytes at off are:
//
//   - a whole record, returned with its encoded length;
//   - a torn tail (errTorn): a bad record at or above store.Horizon(),
//     where a crash may have interrupted a write in flight;
//   - corruption (ErrCorrupt, with segment and offset): a bad record below
//     the horizon, where every byte was written and synced.
//
// Bad means any of: a type the engine does not write (the zero fill of a
// hole included), a header cut short by limit, a non-minimal or
// overflowing uvarint, payload lengths past MaxPayload or running past
// limit, a back-link before the log's start, bytes the store cannot read,
// or a failed CRC.
//
// It reads the header into hdr (maxHeaderSize bytes, or fewer where the
// log ends), derives the record's length from it and then reads the rest
// into one new buffer, which the record's payloads point into.
func readRecordAt(store Store, off, limit int64, hdr []byte) (*Record, int64, error) {
	bad := func(cause error) (*Record, int64, error) {
		if off < int64(store.Horizon()) {
			return nil, 0, corruptAt(store, off, cause)
		}
		return nil, 0, fmt.Errorf("%w at %d: %w", errTorn, off, cause)
	}
	hdr = hdr[:min(int64(len(hdr)), max(limit-off, 0))]
	// The prefix can reach past this record into a hole a crash left;
	// what was read is all the header there is.
	n, err := store.ReadAt(hdr, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return bad(err)
	}
	var h Record
	hdrLen, redoLen, undoLen, err := parseHeader(&h, hdr[:n], LSN(off))
	if err != nil {
		return bad(err)
	}
	total := int64(frameSize(hdrLen, redoLen, undoLen))
	if off+total > limit {
		return bad(errTruncBody)
	}
	buf := make([]byte, total)
	if c := copy(buf, hdr[:n]); int64(c) < total {
		if _, err := store.ReadAt(buf[c:], off+int64(c)); err != nil {
			return bad(err)
		}
	}
	rec, _, err := DecodeRecord(buf, LSN(off))
	if err != nil {
		return bad(err)
	}
	return rec, total, nil
}

// corruptAt wraps cause in ErrCorrupt with segment/offset context.
func corruptAt(store Store, off int64, cause error) error {
	if sb, ok := store.(interface{ SegmentBytes() int64 }); ok {
		segBytes := sb.SegmentBytes()
		return fmt.Errorf("%w: segment %d offset %d (lsn %d): %v",
			ErrCorrupt, off/segBytes, off%segBytes, off, cause)
	}
	return fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, cause)
}

// Next returns the next record and its LSN. It returns io.EOF at the end
// of the valid log and ErrCorrupt for damage below the durable horizon.
func (s *Scanner) Next() (*Record, error) {
	if s.off >= s.limit {
		return nil, io.EOF
	}
	rec, n, err := readRecordAt(s.store, s.off, s.limit, s.hdr[:])
	if errors.Is(err, errTorn) {
		s.torn = s.limit - s.off
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	s.off += n
	return rec, nil
}

// CheckTail validates the log suffix from the last checkpoint and
// classifies its end: the offset of the last valid record boundary, the
// number of torn trailing bytes to clip, or an ErrCorrupt if damage lies
// below the durable horizon. It must run (and the tail be clipped via
// Truncate) before any log manager captures the store's size.
func CheckTail(store Store) (end int64, torn int64, err error) {
	master, err := store.Master()
	if err != nil {
		return 0, 0, err
	}
	if int64(master) > store.Size() {
		return 0, 0, fmt.Errorf("%w: master checkpoint %v beyond log end %d — log tail missing",
			ErrCorrupt, master, store.Size())
	}
	sc := NewScanner(store, master)
	for {
		_, e := sc.Next()
		if errors.Is(e, io.EOF) {
			break
		}
		if e != nil {
			return 0, 0, e
		}
	}
	return sc.End(), sc.TornBytes(), nil
}

// ReadRecordAt reads the single record at lsn. Unlike Scanner it takes a
// torn tail for an error too: undo follows PrevLSN chains and a broken
// link is unrecoverable.
func ReadRecordAt(store Store, lsn LSN) (*Record, error) {
	if lsn < logHeaderSize {
		return nil, fmt.Errorf("wal: ReadRecordAt(%v): %w: before log start", lsn, ErrInvalidLSN)
	}
	rec, _, err := readRecordAt(store, int64(lsn), store.Size(), make([]byte, maxHeaderSize))
	if err != nil {
		return nil, fmt.Errorf("wal: ReadRecordAt(%v): %w", lsn, err)
	}
	return rec, nil
}

// TxInfo describes an active transaction inside a checkpoint.
type TxInfo struct {
	TxID     uint64
	LastLSN  LSN
	UndoNext LSN
}

// DirtyInfo describes a dirty page inside a checkpoint: RecLSN is the LSN
// of the earliest record that may not yet be reflected on disk.
type DirtyInfo struct {
	Page   page.ID
	RecLSN LSN
}

// CheckpointData is the payload of a RecCkptEnd record: the active
// transaction table and the dirty page table at checkpoint time.
type CheckpointData struct {
	BeginLSN LSN // LSN of the matching RecCkptBegin
	Txs      []TxInfo
	Dirty    []DirtyInfo
}

// Encode serializes the checkpoint payload.
func (c *CheckpointData) Encode() []byte {
	b := make([]byte, 0, 24+len(c.Txs)*24+len(c.Dirty)*16)
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		b = append(b, tmp[:]...)
	}
	put(uint64(c.BeginLSN))
	put(uint64(len(c.Txs)))
	put(uint64(len(c.Dirty)))
	for _, t := range c.Txs {
		put(t.TxID)
		put(uint64(t.LastLSN))
		put(uint64(t.UndoNext))
	}
	for _, d := range c.Dirty {
		put(uint64(d.Page))
		put(uint64(d.RecLSN))
	}
	return b
}

// DecodeCheckpoint parses a checkpoint payload. The counts are bounded by
// what the payload can hold before anything is multiplied, and the payload
// must be exactly as long as they say.
func DecodeCheckpoint(b []byte) (*CheckpointData, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("%w: checkpoint payload too short", ErrBadRecord)
	}
	get := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	c := &CheckpointData{BeginLSN: LSN(get(0))}
	room := uint64(len(b) - 24)
	nTx, nDirty := get(8), get(16)
	if nTx > room/24 || nDirty > room/16 || nTx*24+nDirty*16 != room {
		return nil, fmt.Errorf("%w: checkpoint payload of %d bytes for %d transactions and %d dirty pages",
			ErrBadRecord, len(b), nTx, nDirty)
	}
	off := 24
	for range nTx {
		c.Txs = append(c.Txs, TxInfo{
			TxID:     get(off),
			LastLSN:  LSN(get(off + 8)),
			UndoNext: LSN(get(off + 16)),
		})
		off += 24
	}
	for range nDirty {
		c.Dirty = append(c.Dirty, DirtyInfo{
			Page:   page.ID(get(off)),
			RecLSN: LSN(get(off + 8)),
		})
		off += 16
	}
	return c, nil
}
