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
// record. A record's frame (record.go) is a type byte, uvarint fields and
// a CRC, with its back-links stored as distances from its own LSN; its
// size therefore depends on the LSN it gets, and each design computes it
// inside the reservation, at the candidate LSN.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

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

// Log record types. The valid set is exactly the types the engine writes;
// zero is never one, so zero fill fails as an invalid type. (9 was a page
// format record: formats are updates with a page-op format kind.)
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
)

// valid reports whether t is a type the engine writes.
func (t RecType) valid() bool { return t >= RecUpdate && t <= RecCkptEnd }

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

// Wire format, one layout for every type:
//
//	u8      type
//	uvarint txid
//	uvarint LSN − prevLSN    (0: none)
//	uvarint page
//	uvarint LSN − undoNext   (0: none)
//	uvarint redoLen
//	uvarint undoLen
//	... redo bytes, undo bytes
//	u32     crc32c (over everything before the crc)
//
// There is no length field: the total follows from the two payload
// lengths. A back-link always points to an earlier record, so a non-null
// one is a positive distance, usually one or two bytes. Every uvarint is
// minimal, so a record has exactly one encoding at a given LSN. The CRC is
// CRC-32C: most records are under 64 bytes, below which the IEEE
// polynomial has no hardware path on amd64 and costs more than the bytes
// the frame saves; CRC-32C has one at any length.
const (
	recTrailerSize = 4
	// MaxPayload bounds redo+undo so a record always fits in any buffer.
	MaxPayload = 1 << 20
	// maxHeaderSize is the widest header: the type, four 64-bit uvarints
	// and two payload lengths of at most MaxPayload (3 bytes each).
	maxHeaderSize = 1 + 4*binary.MaxVarintLen64 + 2*3
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
	ErrInvalidLSN     = errors.New("wal: invalid LSN")
)

// The ways a frame can be bad, each an ErrBadRecord. They are values, so
// the scan that meets one allocates nothing to say so.
var (
	errTruncHeader = fmt.Errorf("%w: truncated header", ErrBadRecord)
	errTruncBody   = fmt.Errorf("%w: truncated body", ErrBadRecord)
	errBadTag      = fmt.Errorf("%w: invalid record type", ErrBadRecord)
	errNonMinimal  = fmt.Errorf("%w: non-minimal or overflowing uvarint", ErrBadRecord)
	errPayloadLen  = fmt.Errorf("%w: payload length past limit", ErrBadRecord)
	errBadLink     = fmt.Errorf("%w: back-link before the start of the log", ErrBadRecord)
	errBadCRC      = fmt.Errorf("%w: crc mismatch", ErrBadRecord)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// linkDelta is link's distance back from at, or 0 for NullLSN.
func linkDelta(at, link LSN) uint64 {
	if link == NullLSN {
		return 0
	}
	return uint64(at - link)
}

// linkOK reports whether link can be stored in a record at at: none, or
// a record between the log's start and at. Insert checks it up front.
func linkOK(at, link LSN) bool { return link == NullLSN || (link >= logHeaderSize && link < at) }

// sizeAt returns the on-log size of r at LSN at.
func (r *Record) sizeAt(at LSN) int {
	return 1 + uvarintLen(r.TxID) + uvarintLen(linkDelta(at, r.PrevLSN)) + uvarintLen(uint64(r.Page)) +
		uvarintLen(linkDelta(at, r.UndoNext)) + uvarintLen(uint64(len(r.Redo))) + uvarintLen(uint64(len(r.Undo))) +
		len(r.Redo) + len(r.Undo) + recTrailerSize
}

// maxSize returns r's widest frame, at any LSN: a back-link's distance
// only grows with the LSN.
func (r *Record) maxSize() int { return r.sizeAt(^LSN(0)) }

// EncodedSize returns the on-log size of r at r.LSN.
func (r *Record) EncodedSize() int { return r.sizeAt(r.LSN) }

// tooLarge reports whether r's payloads exceed MaxPayload.
func (r *Record) tooLarge() bool { return len(r.Redo)+len(r.Undo) > MaxPayload }

// put serializes r at r.LSN into b, which is exactly EncodedSize bytes
// long; the caller has ruled out tooLarge and links that fail linkOK. It
// cannot fail, so a log manager may call it on buffer space it can no
// longer give back.
func (r *Record) put(b []byte) {
	b[0] = byte(r.Type)
	n := 1
	for _, v := range [...]uint64{r.TxID, linkDelta(r.LSN, r.PrevLSN), uint64(r.Page),
		linkDelta(r.LSN, r.UndoNext), uint64(len(r.Redo)), uint64(len(r.Undo))} {
		n += binary.PutUvarint(b[n:], v)
	}
	n += copy(b[n:], r.Redo)
	n += copy(b[n:], r.Undo)
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli))
}

// parseHeader reads the header of the record at at from the front of b,
// which may end anywhere after it, into r, and returns the header's
// length and the two payload lengths. The type comes first, so zero fill
// fails there, before any length is trusted.
func parseHeader(r *Record, b []byte, at LSN) (hdrLen, redoLen, undoLen int, err error) {
	if len(b) == 0 {
		return 0, 0, 0, errTruncHeader
	}
	if r.Type = RecType(b[0]); !r.Type.valid() {
		return 0, 0, 0, errBadTag
	}
	var f [6]uint64 // txid, prev distance, page, undo-next distance, redoLen, undoLen
	hdrLen = 1
	for i := range f {
		x, n := binary.Uvarint(b[hdrLen:])
		if n == 0 {
			return 0, 0, 0, errTruncHeader
		}
		if n < 0 || (n > 1 && b[hdrLen+n-1] == 0) {
			return 0, 0, 0, errNonMinimal
		}
		f[i], hdrLen = x, hdrLen+n
	}
	if f[4] > MaxPayload || f[5] > MaxPayload-f[4] {
		return 0, 0, 0, errPayloadLen
	}
	for _, d := range [...]uint64{f[1], f[3]} {
		if d != 0 && (at < logHeaderSize || d > uint64(at-logHeaderSize)) {
			return 0, 0, 0, errBadLink
		}
	}
	r.LSN, r.TxID, r.PrevLSN, r.Page, r.UndoNext = at, f[0], linkAt(at, f[1]), page.ID(f[2]), linkAt(at, f[3])
	return hdrLen, int(f[4]), int(f[5]), nil
}

// linkAt turns a stored distance back into an LSN.
func linkAt(at LSN, delta uint64) LSN {
	if delta == 0 {
		return NullLSN
	}
	return at - LSN(delta)
}

// frameSize is the total length of a record with this header.
func frameSize(hdrLen, redoLen, undoLen int) int { return hdrLen + redoLen + undoLen + recTrailerSize }

// DecodeRecord parses the record at LSN at from the front of buf. It
// returns the record and its encoded length. ErrBadRecord is returned for
// truncated or corrupt input — recovery uses this to find the end of the
// log. Decoding is strict: any accepted record re-encodes at the same LSN
// to exactly the input bytes, so the CRC the encoder would produce always
// agrees with the one on the log.
//
// Redo and Undo are sub-slices of buf, clipped to their length: the
// caller must not reuse buf while the record is in use.
func DecodeRecord(buf []byte, at LSN) (*Record, int, error) {
	r := new(Record)
	hdrLen, redoLen, undoLen, err := parseHeader(r, buf, at)
	if err != nil {
		return nil, 0, err
	}
	total := frameSize(hdrLen, redoLen, undoLen)
	if len(buf) < total {
		return nil, 0, errTruncBody
	}
	body, redoEnd := total-recTrailerSize, hdrLen+redoLen
	if crc32.Checksum(buf[:body], castagnoli) != binary.LittleEndian.Uint32(buf[body:]) {
		return nil, 0, errBadCRC
	}
	if redoLen > 0 {
		r.Redo = buf[hdrLen:redoEnd:redoEnd]
	}
	if undoLen > 0 {
		r.Undo = buf[redoEnd:body:body]
	}
	return r, total, nil
}
