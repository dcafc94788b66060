// Package wire defines shored's binary wire protocol: length-prefixed
// frames carrying versioned request/response payloads. Both the server
// (internal/server) and the Go client (client) speak it.
//
// Frame layout (all integers big-endian):
//
//	| u32 length | payload (length bytes) |
//
// length counts the payload only and is capped at MaxFrame; a peer that
// announces a larger frame is protocol-broken and the connection must be
// dropped (the stream cannot be resynchronized).
//
// Request payload:
//
//	| u8 version | u8 opcode | u32 session | body |
//
// Response payload:
//
//	| u8 version | u8 status | u8 flags | u32 session | body |
//
// A zero status is success and the body is the op's result; a non-zero
// status is an error code, and the body is a UTF-8 message (possibly
// empty). FlagTxAborted reports that the session's open transaction was
// rolled back as a side effect of the error (deadlock victims, lock
// timeouts, and any failure of a batch that began the transaction or was
// to commit it), so the client knows not to send Rollback.
//
// One request shape works inside a transaction: OpBatch, whose body is
//
//	| u8 flags | u16 n | n × ( u8 kind | op body ) |
//
// The flags pick a mode — a server-managed transaction (BatchUpdate,
// BatchView) or the session's explicit one (BatchSession) — and, in
// session mode, whether to begin before the first op (BatchBegin) and
// commit after the last (BatchCommit). n may be zero: begin is an empty
// batch with BatchBegin, commit an empty one with BatchCommit, a single
// op a batch of one. The kinds (OpHeapInsert … OpIdxGetU, OpCall) share
// the Op number space with the request opcodes but are not requests; the
// remaining requests are OpHello, OpPing, OpResolve, OpStats, DDL
// (OpCreateTable, OpCreateIndex) and OpRollback.
//
// OpCall runs a program: a whole transaction body the server's host
// registered in process (core.Engine.RegisterProgram) and published in the
// catalog under KindProgram. The entry carries the program's id and an
// argument blob the program decodes and validates; no code travels. A
// program that rolls its transaction back on purpose answers
// StatusRolledBack.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version spoken by this package.
const Version = 1

// MaxFrame caps a frame's payload size (1 MiB). ReadFrame checks the
// announced length against it before allocating, so a hostile header
// cannot make the receiver allocate unbounded memory.
const MaxFrame = 1 << 20

// Fixed header sizes inside the payload.
const (
	reqFixed  = 1 + 1 + 4     // version, opcode, session
	respFixed = 1 + 1 + 1 + 4 // version, status, flags, session
)

// Protocol-level errors.
var (
	// ErrTooLarge reports a frame whose announced payload exceeds
	// MaxFrame (or an attempt to write one).
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrMalformed reports a payload that cannot be decoded.
	ErrMalformed = errors.New("wire: malformed payload")
	// ErrVersion reports a payload with an unknown protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
)

// Op identifies a request type.
type Op uint8

// Opcodes: the requests (see Valid) and, in the same number space, the
// kinds of a batch entry (see DataOpKind). Values are never renumbered.
const (
	OpInvalid  Op = iota
	OpHello       // open a session; response body: u32 session id
	OpPing        // liveness probe; empty body
	_             // retired: begin (now an OpBatch with BatchBegin)
	_             // retired: commit (now an OpBatch with BatchCommit)
	OpRollback    // roll the session's transaction back
	OpCreateTable
	OpCreateIndex
	OpResolve // catalog lookup: str name -> u32 id, u8 kind
	OpHeapInsert
	OpHeapGet
	OpHeapUpdate
	OpHeapDelete
	OpIdxInsert
	OpIdxGet
	OpIdxUpdate
	OpIdxDelete
	OpIdxScan
	OpBatch // a whole transaction (or fragment) in one frame
	OpStats // server + engine counters as JSON
	// OpIdxGetU is OpIdxGet under an exclusive lock (SELECT FOR
	// UPDATE). Read-modify-write cycles split across frames MUST use it
	// for the keys they will write back: S-then-upgrade-to-X across a
	// round trip deadlocks against any concurrent reader of the key.
	OpIdxGetU
	// OpCall runs a registered program (see the package doc).
	OpCall
)

// String names the opcode.
func (o Op) String() string {
	names := [...]string{"invalid", "hello", "ping", "op3", "op4", "rollback",
		"createTable", "createIndex", "resolve", "heapInsert", "heapGet",
		"heapUpdate", "heapDelete", "idxInsert", "idxGet", "idxUpdate",
		"idxDelete", "idxScan", "batch", "stats", "idxGetU", "call"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Valid reports whether o is a request opcode. Batch entry kinds
// (DataOpKind) and retired opcodes are not: ParseRequest refuses them.
func (o Op) Valid() bool {
	switch o {
	case OpHello, OpPing, OpRollback, OpCreateTable, OpCreateIndex,
		OpResolve, OpBatch, OpStats:
		return true
	}
	return false
}

// Status encodes a response outcome. It is an error: each of the client's
// sentinels is its status (client.ErrDeadlock is StatusDeadlock).
type Status uint8

// Response status codes. StatusOK is success; everything else is an
// error, and the client's sentinel for it.
const (
	StatusOK         Status = 0
	StatusErr        Status = 1 // uncategorized; message in body
	StatusBusy       Status = 2 // admission queue full: shed, retry later
	StatusDeadlock   Status = 3
	StatusTimeout    Status = 4
	StatusCanceled   Status = 5
	StatusDuplicate  Status = 6
	StatusNotFound   Status = 7
	StatusNoRecord   Status = 8
	StatusReadOnly   Status = 9
	StatusTxOpen     Status = 10 // BatchBegin or a managed batch with a transaction open
	StatusNoTx       Status = 11 // session batch or Rollback with no transaction
	StatusProto      Status = 12 // malformed request
	StatusTooLarge   Status = 13 // request or response exceeded MaxFrame
	StatusClosing    Status = 14 // server is draining; no new transactions
	StatusBadSession Status = 15 // session id does not match the connection
	StatusRolledBack Status = 16 // a program rolled its transaction back on purpose
)

// statuses is the one table of what a status means to a caller: its name,
// whether to retry the whole unit of work, and whether the server ends the
// session's transaction when an engine error takes the status.
var statuses = [...]struct {
	name      string
	retryable bool
	aborts    bool
}{
	StatusOK:         {name: "ok"},
	StatusErr:        {name: "error"},
	StatusBusy:       {name: "busy", retryable: true},
	StatusDeadlock:   {name: "deadlock", retryable: true, aborts: true},
	StatusTimeout:    {name: "timeout", retryable: true, aborts: true},
	StatusCanceled:   {name: "canceled", aborts: true},
	StatusDuplicate:  {name: "duplicate"},
	StatusNotFound:   {name: "notFound"},
	StatusNoRecord:   {name: "noRecord"},
	StatusReadOnly:   {name: "readOnly"},
	StatusTxOpen:     {name: "txOpen"},
	StatusNoTx:       {name: "noTx"},
	StatusProto:      {name: "proto"},
	StatusTooLarge:   {name: "tooLarge"},
	StatusClosing:    {name: "closing"},
	StatusBadSession: {name: "badSession"},
	StatusRolledBack: {name: "rolledBack", aborts: true},
}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statuses) {
		return statuses[s].name
	}
	return fmt.Sprintf("status%d", uint8(s))
}

// Error makes a status a sentinel; it reads as its name.
func (s Status) Error() string { return s.String() }

// Retryable reports the table's retryable column for s.
func (s Status) Retryable() bool { return int(s) < len(statuses) && statuses[s].retryable }

// Aborts reports the table's column for whether s ends the transaction.
func (s Status) Aborts() bool { return int(s) < len(statuses) && statuses[s].aborts }

// Response flag bits.
const (
	// FlagTxAborted: the session's open transaction was rolled back as
	// part of producing this (error) response.
	FlagTxAborted uint8 = 1 << 0
)

// Catalog entry kinds (OpResolve responses).
const (
	KindIndex   byte = 1 // id is a B-tree store
	KindHeap    byte = 2 // id is a heap-table store
	KindMeta    byte = 3 // id is an out-of-band value (e.g. a scale axis)
	KindProgram byte = 4 // id is a registered program (OpCall)
)

// ReadFrame reads one length-prefixed frame from r into *buf (growing it
// as needed) and returns the payload slice, which aliases *buf and is
// only valid until the next call with the same buffer. The length header
// is validated against MaxFrame before any allocation.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes announced", ErrTooLarge, n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return p, nil
}

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Request is a decoded request payload. Body aliases the frame buffer.
type Request struct {
	Op      Op
	Session uint32
	Body    []byte
}

// AppendRequest appends a request payload (no frame header) to dst.
func AppendRequest(dst []byte, op Op, session uint32, body []byte) []byte {
	dst = append(dst, Version, byte(op))
	dst = binary.BigEndian.AppendUint32(dst, session)
	return append(dst, body...)
}

// ParseRequest decodes a request payload.
func ParseRequest(p []byte) (Request, error) {
	if len(p) < reqFixed {
		return Request{}, fmt.Errorf("%w: request payload %d bytes", ErrMalformed, len(p))
	}
	if p[0] != Version {
		return Request{}, fmt.Errorf("%w: %d", ErrVersion, p[0])
	}
	op := Op(p[1])
	if !op.Valid() {
		return Request{}, fmt.Errorf("%w: opcode %d", ErrMalformed, p[1])
	}
	return Request{Op: op, Session: binary.BigEndian.Uint32(p[2:6]), Body: p[reqFixed:]}, nil
}

// Response is a decoded response payload. Body aliases the frame buffer.
type Response struct {
	Status  Status
	Flags   uint8
	Session uint32
	Body    []byte
}

// AppendResponse appends a response payload (no frame header) to dst.
func AppendResponse(dst []byte, status Status, flags uint8, session uint32, body []byte) []byte {
	dst = append(dst, Version, byte(status), flags)
	dst = binary.BigEndian.AppendUint32(dst, session)
	return append(dst, body...)
}

// ParseResponse decodes a response payload.
func ParseResponse(p []byte) (Response, error) {
	if len(p) < respFixed {
		return Response{}, fmt.Errorf("%w: response payload %d bytes", ErrMalformed, len(p))
	}
	if p[0] != Version {
		return Response{}, fmt.Errorf("%w: %d", ErrVersion, p[0])
	}
	return Response{
		Status:  Status(p[1]),
		Flags:   p[2],
		Session: binary.BigEndian.Uint32(p[3:7]),
		Body:    p[respFixed:],
	}, nil
}

// Enc is a tiny append-only payload encoder shared by both peers.
type Enc struct{ B []byte }

// U8 appends a byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U16 appends a big-endian uint16.
func (e *Enc) U16(v uint16) { e.B = binary.BigEndian.AppendUint16(e.B, v) }

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.BigEndian.AppendUint32(e.B, v) }

// U64 appends a big-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.BigEndian.AppendUint64(e.B, v) }

// Bytes appends a u32 length prefix and the bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Str appends a string like Bytes.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Dec is the matching sticky-error decoder. All getters return zero
// values once an underrun is hit; check Err (or Done) at the end.
// Byte-slice results alias the input buffer.
type Dec struct {
	B   []byte
	Off int
	Err error
}

// NewDec wraps b for decoding.
func NewDec(b []byte) *Dec { return &Dec{B: b} }

func (d *Dec) need(n int) bool {
	if d.Err != nil {
		return false
	}
	if n < 0 || len(d.B)-d.Off < n {
		d.Err = fmt.Errorf("%w: truncated at offset %d", ErrMalformed, d.Off)
		return false
	}
	return true
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.B[d.Off]
	d.Off++
	return v
}

// U16 reads a big-endian uint16.
func (d *Dec) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.B[d.Off:])
	d.Off += 2
	return v
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.B[d.Off:])
	d.Off += 4
	return v
}

// U64 reads a big-endian uint64.
func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.B[d.Off:])
	d.Off += 8
	return v
}

// Bytes reads a u32-length-prefixed byte string. The length is bounded
// by the remaining input, so a lying prefix cannot trigger a huge
// allocation — the result always aliases the frame buffer.
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if !d.need(n) {
		return nil
	}
	b := d.B[d.Off : d.Off+n : d.Off+n]
	d.Off += n
	return b
}

// Str reads a length-prefixed string (copied).
func (d *Dec) Str() string { return string(d.Bytes()) }

// Done reports a fully-consumed, error-free decode.
func (d *Dec) Done() error {
	if d.Err != nil {
		return d.Err
	}
	if d.Off != len(d.B) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.B)-d.Off)
	}
	return nil
}
