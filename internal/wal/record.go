// Package wal implements ARIES-style write-ahead logging with the three
// log-manager designs whose evolution the Shore-MT paper traces, as three
// reservation policies over one ring log (ring.go):
//
//   - Coupled: the original Shore design — one global mutex held across
//     every insert and every flush, and synchronous flushes that block
//     inserts.
//   - Decoupled (§6.2.2 problem 2): separate insert, compensate and flush
//     mutexes and a cached tail pointer, so unrelated operations proceed
//     in parallel.
//   - Consolidated (§6.2.4): the extended-queuing-lock buffer — threads
//     serialize only long enough to claim buffer space and an LSN, copy
//     their record in parallel, and publish completion in order, with the
//     flusher following behind.
//
// LSNs are byte offsets into the log stream, so a reservation counter
// doubles as the LSN generator and recovery can seek directly to any
// record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/page"
)

// LSN is a log sequence number: a byte offset into the log stream.
type LSN uint64

// NullLSN marks "no LSN" (e.g. a page never touched since format).
const NullLSN LSN = 0

// logHeaderSize is the size of the log file preamble; the first record
// begins here so that no valid record has LSN 0.
const logHeaderSize = 8

// logMagic is the log file preamble.
var logMagic = [logHeaderSize]byte{'S', 'H', 'O', 'R', 'E', 'L', 'O', 'G'}

// String formats the LSN.
func (l LSN) String() string { return fmt.Sprintf("lsn:%d", uint64(l)) }

// RecType identifies the kind of a log record.
type RecType uint8

// Log record types.
const (
	RecInvalid   RecType = iota
	RecUpdate            // page update: redo + undo payloads
	RecCLR               // compensation log record (redo-only)
	RecTxBegin           // transaction begin
	RecTxCommit          // transaction commit
	RecTxAbort           // transaction abort decision
	RecTxEnd             // transaction fully finished (after rollback)
	RecCkptBegin         // fuzzy checkpoint begin
	RecCkptEnd           // fuzzy checkpoint end (carries tables)
	RecFormat            // page format (redo-only)
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecUpdate:
		return "update"
	case RecCLR:
		return "clr"
	case RecTxBegin:
		return "begin"
	case RecTxCommit:
		return "commit"
	case RecTxAbort:
		return "abort"
	case RecTxEnd:
		return "end"
	case RecCkptBegin:
		return "ckpt-begin"
	case RecCkptEnd:
		return "ckpt-end"
	case RecFormat:
		return "format"
	default:
		return fmt.Sprintf("rec%d", uint8(t))
	}
}

// Record is a log record. Redo and Undo payloads are opaque to the log
// manager; the storage manager's codec interprets them.
type Record struct {
	LSN      LSN     // assigned at insert
	Type     RecType //
	TxID     uint64  // owning transaction, 0 for checkpoints
	PrevLSN  LSN     // previous record of the same transaction
	Page     page.ID // affected page, 0 if none
	UndoNext LSN     // for CLRs: next record to undo
	Redo     []byte  // redo payload
	Undo     []byte  // undo payload
}

// Wire format:
//
//	u32 totalLen  (header + payloads + crc)
//	u8  type
//	u8  flags (reserved)
//	u16 reserved
//	u64 txid
//	u64 prevLSN
//	u64 page
//	u64 undoNext
//	u32 redoLen
//	u32 undoLen
//	... redo bytes, undo bytes
//	u32 crc32 (over everything before the crc)
const (
	recHeaderSize  = 4 + 1 + 1 + 2 + 8 + 8 + 8 + 8 + 4 + 4
	recTrailerSize = 4
	// MaxPayload bounds redo+undo so a record always fits in any buffer.
	MaxPayload = 1 << 20
)

// Errors from encoding/decoding and from the store layer. ErrBadRecord
// classifies a single undecodable record; the sentinels below classify
// what that means for the log as a whole: a bad record above the durable
// horizon is a torn tail (expected after a crash, clipped), while one
// below it is ErrCorrupt — committed work is damaged and startup must
// refuse rather than silently truncate.
var (
	ErrRecordTooLarge = errors.New("wal: record payload too large")
	ErrBadRecord      = errors.New("wal: malformed or corrupt record")
	ErrCorrupt        = errors.New("wal: log corrupt below durable horizon")
	ErrShortWrite     = errors.New("wal: short write")
	ErrInvalidLSN     = errors.New("wal: invalid LSN")
)

// EncodedSize returns the on-log size of r.
func (r *Record) EncodedSize() int {
	return recHeaderSize + len(r.Redo) + len(r.Undo) + recTrailerSize
}

// Encode serializes r into buf, which must be at least EncodedSize bytes,
// and returns the number of bytes written.
func (r *Record) Encode(buf []byte) (int, error) {
	if r.tooLarge() {
		return 0, ErrRecordTooLarge
	}
	total := r.EncodedSize()
	if len(buf) < total {
		return 0, fmt.Errorf("wal: encode buffer too small: %d < %d", len(buf), total)
	}
	r.put(buf[:total])
	return total, nil
}

// tooLarge reports whether r's payloads exceed MaxPayload.
func (r *Record) tooLarge() bool { return len(r.Redo)+len(r.Undo) > MaxPayload }

// put serializes r into b, which is exactly EncodedSize bytes long; the
// caller has ruled out tooLarge. It cannot fail, so a log manager may
// call it on buffer space it can no longer give back.
func (r *Record) put(b []byte) {
	total := len(b)
	binary.LittleEndian.PutUint32(b[0:], uint32(total))
	b[4] = byte(r.Type)
	b[5] = 0
	binary.LittleEndian.PutUint16(b[6:], 0)
	binary.LittleEndian.PutUint64(b[8:], r.TxID)
	binary.LittleEndian.PutUint64(b[16:], uint64(r.PrevLSN))
	binary.LittleEndian.PutUint64(b[24:], uint64(r.Page))
	binary.LittleEndian.PutUint64(b[32:], uint64(r.UndoNext))
	binary.LittleEndian.PutUint32(b[40:], uint32(len(r.Redo)))
	binary.LittleEndian.PutUint32(b[44:], uint32(len(r.Undo)))
	copy(b[recHeaderSize:], r.Redo)
	copy(b[recHeaderSize+len(r.Redo):], r.Undo)
	crc := crc32.ChecksumIEEE(b[:total-recTrailerSize])
	binary.LittleEndian.PutUint32(b[total-recTrailerSize:], crc)
}

// DecodeRecord parses a record from the front of buf. It returns the
// record and its encoded length. ErrBadRecord is returned for truncated or
// corrupt input — recovery uses this to find the end of the log. Decoding
// is strict: any accepted record re-encodes to exactly the input bytes, so
// the CRC the encoder would produce always agrees with the one on the log.
func DecodeRecord(buf []byte) (*Record, int, error) {
	if len(buf) < recHeaderSize+recTrailerSize {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrBadRecord)
	}
	total := int(binary.LittleEndian.Uint32(buf[0:]))
	if total < recHeaderSize+recTrailerSize || total > recHeaderSize+MaxPayload+recTrailerSize {
		return nil, 0, fmt.Errorf("%w: bad length %d", ErrBadRecord, total)
	}
	if len(buf) < total {
		return nil, 0, fmt.Errorf("%w: truncated body", ErrBadRecord)
	}
	b := buf[:total]
	want := binary.LittleEndian.Uint32(b[total-recTrailerSize:])
	if crc32.ChecksumIEEE(b[:total-recTrailerSize]) != want {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrBadRecord)
	}
	if t := RecType(b[4]); t == RecInvalid || t > RecFormat {
		return nil, 0, fmt.Errorf("%w: unknown record type %d", ErrBadRecord, b[4])
	}
	if b[5] != 0 || binary.LittleEndian.Uint16(b[6:]) != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrBadRecord)
	}
	redoLen := int(binary.LittleEndian.Uint32(b[40:]))
	undoLen := int(binary.LittleEndian.Uint32(b[44:]))
	if recHeaderSize+redoLen+undoLen+recTrailerSize != total {
		return nil, 0, fmt.Errorf("%w: inconsistent payload lengths", ErrBadRecord)
	}
	r := &Record{
		Type:     RecType(b[4]),
		TxID:     binary.LittleEndian.Uint64(b[8:]),
		PrevLSN:  LSN(binary.LittleEndian.Uint64(b[16:])),
		Page:     page.ID(binary.LittleEndian.Uint64(b[24:])),
		UndoNext: LSN(binary.LittleEndian.Uint64(b[32:])),
	}
	if redoLen > 0 {
		r.Redo = append([]byte(nil), b[recHeaderSize:recHeaderSize+redoLen]...)
	}
	if undoLen > 0 {
		r.Undo = append([]byte(nil), b[recHeaderSize+redoLen:recHeaderSize+redoLen+undoLen]...)
	}
	return r, total, nil
}
