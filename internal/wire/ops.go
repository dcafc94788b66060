package wire

import (
	"encoding/json"
	"fmt"
)

// RID mirrors page.RID on the wire without importing the engine: the
// client package stays decoupled from internal storage types.
type RID struct {
	Page uint64
	Slot uint16
}

// DataOp is one data operation: one entry of a batch. Field use by kind:
//
//	OpHeapInsert: Store, Val
//	OpHeapGet/OpHeapDelete: Store, RID
//	OpHeapUpdate: Store, RID, Val
//	OpIdxInsert/OpIdxUpdate: Store, Key, Val
//	OpIdxGet/OpIdxGetU/OpIdxDelete: Store, Key
//	OpIdxScan: Store, Key (from), Val (to; empty = unbounded), Limit
//	OpCall: Store (the program id), Val (its arguments)
type DataOp struct {
	Kind  Op
	Store uint32
	Key   []byte
	Val   []byte
	RID   RID
	Limit uint32
}

// DataOpKind reports whether op names a data operation, the only kinds
// that may appear in a batch.
func DataOpKind(op Op) bool {
	switch op {
	case OpHeapInsert, OpHeapGet, OpHeapUpdate, OpHeapDelete,
		OpIdxInsert, OpIdxGet, OpIdxGetU, OpIdxUpdate, OpIdxDelete, OpIdxScan, OpCall:
		return true
	}
	return false
}

// AppendDataOp appends op's body (kind excluded) to e.
func AppendDataOp(e *Enc, op *DataOp) {
	e.U32(op.Store)
	switch op.Kind {
	case OpHeapInsert, OpCall:
		e.Bytes(op.Val)
	case OpHeapGet, OpHeapDelete:
		e.U64(op.RID.Page)
		e.U16(op.RID.Slot)
	case OpHeapUpdate:
		e.U64(op.RID.Page)
		e.U16(op.RID.Slot)
		e.Bytes(op.Val)
	case OpIdxInsert, OpIdxUpdate:
		e.Bytes(op.Key)
		e.Bytes(op.Val)
	case OpIdxGet, OpIdxGetU, OpIdxDelete:
		e.Bytes(op.Key)
	case OpIdxScan:
		e.Bytes(op.Key)
		e.Bytes(op.Val)
		e.U32(op.Limit)
	}
}

// DecodeDataOp decodes an op body of the given kind from d. Key/Val
// alias the frame buffer.
func DecodeDataOp(d *Dec, kind Op, op *DataOp) error {
	if !DataOpKind(kind) {
		return fmt.Errorf("%w: op %v is not a data op", ErrMalformed, kind)
	}
	op.Kind = kind
	op.Store = d.U32()
	switch kind {
	case OpHeapInsert, OpCall:
		op.Val = d.Bytes()
	case OpHeapGet, OpHeapDelete:
		op.RID.Page = d.U64()
		op.RID.Slot = d.U16()
	case OpHeapUpdate:
		op.RID.Page = d.U64()
		op.RID.Slot = d.U16()
		op.Val = d.Bytes()
	case OpIdxInsert, OpIdxUpdate:
		op.Key = d.Bytes()
		op.Val = d.Bytes()
	case OpIdxGet, OpIdxGetU, OpIdxDelete:
		op.Key = d.Bytes()
	case OpIdxScan:
		op.Key = d.Bytes()
		op.Val = d.Bytes()
		op.Limit = d.U32()
	}
	return d.Err
}

// Batch execution modes and flags (first body byte of OpBatch).
const (
	// BatchModeMask selects the execution mode from the flag byte.
	BatchModeMask uint8 = 0x03
	// BatchSession runs the ops against the session's explicit
	// transaction (see BatchBegin/BatchCommit).
	BatchSession uint8 = 0
	// BatchUpdate runs the ops inside a server-managed read-write
	// transaction (DB.Update): the engine aborts and retries deadlock
	// victims transparently, and commits when every op succeeded.
	BatchUpdate uint8 = 1
	// BatchView is BatchUpdate's read-only sibling (DB.View).
	BatchView uint8 = 2

	// BatchBegin (session mode) begins the session transaction before
	// the first op; an already-open transaction is a StatusTxOpen error.
	BatchBegin uint8 = 1 << 2
	// BatchCommit (session mode) commits the session transaction after
	// the last op; any failure rolls it back (FlagTxAborted).
	BatchCommit uint8 = 1 << 3
)

// MaxBatchOps bounds the ops in one batch frame.
const MaxBatchOps = 4096

// Batch is a decoded OpBatch body.
type Batch struct {
	Flags uint8
	Ops   []DataOp
}

// AppendBatch appends a batch body to e.
func AppendBatch(e *Enc, flags uint8, ops []DataOp) error {
	if len(ops) > MaxBatchOps {
		return fmt.Errorf("%w: %d batch ops", ErrTooLarge, len(ops))
	}
	e.U8(flags)
	e.U16(uint16(len(ops)))
	for i := range ops {
		e.U8(uint8(ops[i].Kind))
		AppendDataOp(e, &ops[i])
	}
	return nil
}

// DecodeBatch decodes a batch body. Op keys/values alias the buffer.
func DecodeBatch(body []byte) (Batch, error) {
	d := NewDec(body)
	b := Batch{Flags: d.U8()}
	if b.Flags&BatchModeMask > BatchView {
		return b, fmt.Errorf("%w: batch mode %d", ErrMalformed, b.Flags&BatchModeMask)
	}
	n := int(d.U16())
	if n > MaxBatchOps {
		return b, fmt.Errorf("%w: %d batch ops", ErrTooLarge, n)
	}
	if d.Err != nil {
		return b, d.Err
	}
	// n is bounded by MaxBatchOps and each op consumes at least one
	// byte, so this allocation is capped independently of the header.
	b.Ops = make([]DataOp, 0, n)
	for i := 0; i < n; i++ {
		kind := Op(d.U8())
		var op DataOp
		if err := DecodeDataOp(d, kind, &op); err != nil {
			return b, err
		}
		b.Ops = append(b.Ops, op)
	}
	return b, d.Done()
}

// ServerStats is the server's counter snapshot, shipped as JSON inside
// OpStats responses (alongside the engine's own stats) and printed by
// shored on shutdown.
type ServerStats struct {
	SessionsOpen        int64  // currently connected sessions
	SessionsPeak        int64  // high-water mark of SessionsOpen
	SessionsTotal       uint64 // sessions ever opened
	Requests            uint64 // frames executed (Hello/Ping excluded)
	Batches             uint64 // OpBatch frames among Requests
	Sheds               uint64 // requests refused with StatusBusy
	DisconnectRollbacks uint64 // open transactions rolled back on disconnect
	IdleCloses          uint64 // sessions closed by their idle read deadline
	QueueHighWater      int64  // most entry requests seen waiting for a slot at once
}

// StatsPayload is the OpStats response body.
type StatsPayload struct {
	Server ServerStats
	Engine json.RawMessage // core.EngineStats, JSON-encoded by the server
}
