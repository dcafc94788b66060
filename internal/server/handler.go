package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	shoremt "repro"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/space"
	"repro/internal/wire"
)

// task is one admitted request awaiting a worker.
type task struct {
	sess *session
	req  wire.Request
	done chan struct{}
}

// worker executes admitted tasks until the queue closes.
func (s *Server) worker() {
	defer s.workerWg.Done()
	for t := range s.tasks {
		s.serve(t)
		close(t.done)
	}
}

// scanBudget bounds an OpIdxScan or OpCall response body so it (plus
// headers) always fits a frame.
const scanBudget = wire.MaxFrame - 64*1024

// defaultScanLimit applies when a scan request passes Limit 0.
const defaultScanLimit = 1024

// serve executes one request and writes its response.
func (s *Server) serve(t *task) {
	sess := t.sess
	s.st.requests.Add(1)
	sess.body.B = sess.body.B[:0]
	status, flags := s.exec(sess, t.req)
	// On success the body holds the result; on error, the message.
	sess.reply(status, flags, sess.body.B)
}

// refuse answers a protocol refusal; msg is left in sess.body.
func (sess *session) refuse(status wire.Status, msg string) (wire.Status, uint8) {
	sess.body.B = append(sess.body.B[:0], msg...)
	return status, 0
}

// fail answers err with its statusRows status, leaving its message in
// sess.body, and ends the session's transaction if end or the status says.
func (sess *session) fail(err error, end bool) (wire.Status, uint8) {
	status := statusOf(err)
	var flags uint8
	if end || status.Aborts() {
		flags = sess.abortTx()
	}
	sess.body.B = append(sess.body.B[:0], err.Error()...)
	return status, flags
}

// exec dispatches the request; on error the message is left in
// sess.body and the status/flags describe it. Only OpBatch and OpRollback
// touch the session's transaction (DDL runs inside it when one is open):
//
//	no tx ──batch with Begin──▶ open ──batch with Commit │ Rollback │
//	                                   abort-worthy failure │ disconnect──▶ no tx
func (s *Server) exec(sess *session, req wire.Request) (wire.Status, uint8) {
	switch req.Op {
	case wire.OpBatch:
		return s.execBatch(sess, req.Body)

	case wire.OpRollback:
		if sess.tx == nil {
			return sess.refuse(wire.StatusNoTx, "no open transaction")
		}
		sess.abortTx()
		return wire.StatusOK, 0

	case wire.OpCreateTable, wire.OpCreateIndex:
		return s.execCreate(sess, req.Op)

	case wire.OpResolve:
		d := wire.NewDec(req.Body)
		name := d.Str()
		if err := d.Done(); err != nil {
			return sess.fail(err, false)
		}
		e, ok := s.resolve(name)
		if !ok {
			return sess.fail(fmt.Errorf("catalog: %q: %w", name, shoremt.ErrNotFound), false)
		}
		sess.body.U32(e.id)
		sess.body.U8(e.kind)
		return wire.StatusOK, 0

	case wire.OpStats:
		payload := wire.StatsPayload{Server: s.Stats()}
		if eng, err := json.Marshal(s.db.Stats()); err == nil {
			payload.Engine = eng
		}
		b, err := json.Marshal(payload)
		if err != nil {
			return sess.fail(err, false)
		}
		sess.body.B = append(sess.body.B, b...)
		return wire.StatusOK, 0
	}
	// ParseRequest lets no other opcode through.
	return sess.fail(fmt.Errorf("%w: opcode %v", wire.ErrMalformed, req.Op), false)
}

// execCreate runs DDL: inside the session transaction when one is
// open, otherwise as its own managed transaction.
func (s *Server) execCreate(sess *session, op wire.Op) (wire.Status, uint8) {
	create := func(t *shoremt.Tx) (uint32, error) {
		if op == wire.OpCreateTable {
			tb, err := s.db.CreateTable(t)
			if err != nil {
				return 0, err
			}
			return tb.ID(), nil
		}
		ix, err := s.db.CreateIndex(t)
		if err != nil {
			return 0, err
		}
		return ix.ID(), nil
	}
	var id uint32
	var err error
	if sess.tx != nil {
		id, err = create(sess.tx)
	} else {
		err = s.db.Update(s.baseCtx, func(t *shoremt.Tx) error {
			id, err = create(t)
			return err
		})
	}
	if err != nil {
		return sess.fail(err, false)
	}
	sess.body.U32(id)
	return wire.StatusOK, 0
}

// execBatch runs an OpBatch body — a whole transaction, or a fragment of
// the session's — and is the one place a session's transaction begins,
// runs data ops and commits.
func (s *Server) execBatch(sess *session, body []byte) (wire.Status, uint8) {
	s.st.batches.Add(1)
	batch, err := wire.DecodeBatch(body)
	if err != nil {
		return sess.fail(err, false)
	}
	run := func(t *shoremt.Tx) error {
		sess.body.B = sess.body.B[:0] // managed retry re-runs the ops
		for i := range batch.Ops {
			if err := s.execDataOp(t, &batch.Ops[i], &sess.body); err != nil {
				return fmt.Errorf("batch op %d (%v): %w", i, batch.Ops[i].Kind, err)
			}
		}
		return nil
	}
	begin, commit := batch.Flags&wire.BatchBegin != 0, batch.Flags&wire.BatchCommit != 0
	// A batch that starts a transaction needs the session to have none; a
	// fragment needs the one that is open.
	if starts := startsTx(batch.Flags); starts && sess.tx != nil {
		return sess.refuse(wire.StatusTxOpen, "transaction already open")
	} else if !starts && sess.tx == nil {
		return sess.refuse(wire.StatusNoTx, "batch with no open transaction")
	}
	switch batch.Flags & wire.BatchModeMask {
	case wire.BatchUpdate:
		err = s.db.Update(s.baseCtx, run)
	case wire.BatchView:
		err = s.db.View(s.baseCtx, run)
	default: // session mode
		if begin {
			if !s.acquireTxToken() {
				s.st.sheds.Add(1)
				return sess.refuse(wire.StatusBusy, "open-transaction limit reached")
			}
			tx, err := s.db.BeginCtx(s.baseCtx)
			if err != nil {
				s.releaseTxToken()
				return sess.fail(err, false)
			}
			sess.setTx(tx)
		}
		if err = run(sess.tx); err == nil && commit {
			if err = sess.tx.Commit(); err == nil {
				sess.setTx(nil)
			}
		}
	}
	if err != nil {
		// A batch that began the session's transaction or was to commit
		// it rolls back on ANY failure: the first leaves the client no
		// handle to roll back with, and either way the whole unit of work
		// can simply be retried. A fragment in between only rolls back
		// when its status says the transaction is over (deadlock victim,
		// timeout, cancellation, a program's rollback). A managed batch
		// has nothing open here: abortTx is a no-op for it.
		return sess.fail(err, begin || commit)
	}
	return wire.StatusOK, 0
}

// startsTx reports whether a batch with these flags runs in a transaction
// it starts itself — a managed mode, or the session's with the begin bit —
// as opposed to continuing the session's open one.
func startsTx(flags uint8) bool {
	return flags&wire.BatchModeMask != wire.BatchSession || flags&wire.BatchBegin != 0
}

// execDataOp runs one data op inside t, appending its result encoding
// to out.
func (s *Server) execDataOp(t *shoremt.Tx, op *wire.DataOp, out *wire.Enc) error {
	switch op.Kind {
	case wire.OpHeapInsert:
		rid, err := s.db.OpenTable(op.Store).Insert(t, op.Val)
		if err != nil {
			return err
		}
		out.U64(uint64(rid.Page))
		out.U16(rid.Slot)
	case wire.OpHeapGet:
		rec, err := s.db.OpenTable(op.Store).Get(t, ridOf(op))
		if err != nil {
			return err
		}
		out.Bytes(rec)
	case wire.OpHeapUpdate:
		return s.db.OpenTable(op.Store).Update(t, ridOf(op), op.Val)
	case wire.OpHeapDelete:
		return s.db.OpenTable(op.Store).Delete(t, ridOf(op))
	case wire.OpIdxInsert:
		ix, err := s.index(op.Store)
		if err != nil {
			return err
		}
		return ix.Insert(t, op.Key, op.Val)
	case wire.OpIdxGet, wire.OpIdxGetU:
		ix, err := s.index(op.Store)
		if err != nil {
			return err
		}
		var val []byte
		var found bool
		if op.Kind == wire.OpIdxGetU {
			val, found, err = ix.GetForUpdate(t, op.Key)
		} else {
			val, found, err = ix.Get(t, op.Key)
		}
		if err != nil {
			return err
		}
		if found {
			out.U8(1)
		} else {
			out.U8(0)
		}
		out.Bytes(val)
	case wire.OpIdxUpdate:
		ix, err := s.index(op.Store)
		if err != nil {
			return err
		}
		return ix.Update(t, op.Key, op.Val)
	case wire.OpIdxDelete:
		ix, err := s.index(op.Store)
		if err != nil {
			return err
		}
		old, err := ix.Delete(t, op.Key)
		if err != nil {
			return err
		}
		out.Bytes(old)
	case wire.OpIdxScan:
		ix, err := s.index(op.Store)
		if err != nil {
			return err
		}
		limit := int(op.Limit)
		if limit <= 0 {
			limit = defaultScanLimit
		}
		from, to := op.Key, op.Val
		if len(from) == 0 {
			from = nil
		}
		if len(to) == 0 {
			to = nil
		}
		countAt := len(out.B)
		out.U32(0)
		n := 0
		err = ix.Scan(t, from, to, func(k, v []byte) bool {
			out.Bytes(k)
			out.Bytes(v)
			n++
			return n < limit && len(out.B) < scanBudget
		})
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint32(out.B[countAt:], uint32(n))
	case wire.OpCall:
		// The program appends its result in place, after a length that is
		// filled in once it is known.
		lenAt := len(out.B)
		out.U32(0)
		res, err := s.db.Call(t, op.Store, op.Val, out.B)
		if err != nil {
			return err
		}
		if len(res) > scanBudget {
			return fmt.Errorf("%w: program %d answered %d bytes", wire.ErrTooLarge, op.Store, len(res)-lenAt)
		}
		out.B = res
		binary.BigEndian.PutUint32(out.B[lenAt:], uint32(len(res)-lenAt-4))
	default:
		return fmt.Errorf("%w: op %v", wire.ErrMalformed, op.Kind)
	}
	return nil
}

// ridOf converts a wire RID to the engine's.
func ridOf(op *wire.DataOp) shoremt.RID {
	return shoremt.RID{Page: page.ID(op.RID.Page), Slot: op.RID.Slot}
}

// setTx updates the session transaction and its shutdown/janitor
// mirror, returning the open-transaction token when the transaction
// ends (the matching acquire happened before BeginCtx).
func (sess *session) setTx(t *shoremt.Tx) {
	if t == nil && sess.tx != nil {
		sess.srv.releaseTxToken()
	}
	sess.tx = t
	sess.hasTx.Store(t != nil)
}

// abortTx ends the session transaction and reports the FlagTxAborted bit
// — only when it was in fact rolled back. An in-doubt commit (its
// durability wait interrupted by shutdown or a log error) refuses to
// abort: its commit record is in the log and may harden, so telling the
// client "aborted, retry the whole unit of work" could apply it twice.
// The handle is dropped either way; Tx.Abort leaves the in-doubt commit
// to finish in the background, which is when its locks go.
func (sess *session) abortTx() uint8 {
	if sess.tx == nil {
		return 0
	}
	err := sess.tx.Abort()
	sess.setTx(nil)
	if errors.Is(err, shoremt.ErrCommitting) {
		return 0
	}
	return wire.FlagTxAborted
}

// statusRows is the one classification of engine errors: an error takes
// the status of the first row it wraps, StatusErr if none (device I/O,
// corruption). Closed comes first: once the engine is gone nothing is
// retryable, whatever else the error wraps.
var statusRows = [...]struct {
	err    error
	status wire.Status
}{
	{shoremt.ErrClosed, wire.StatusClosing},
	{shoremt.ErrDeadlock, wire.StatusDeadlock},
	{shoremt.ErrTimeout, wire.StatusTimeout},
	{shoremt.ErrCanceled, wire.StatusCanceled},
	{shoremt.ErrDuplicate, wire.StatusDuplicate},
	{shoremt.ErrNotFound, wire.StatusNotFound},
	{space.ErrNoSuchStore, wire.StatusNotFound},
	{shoremt.ErrNoRecord, wire.StatusNoRecord},
	{shoremt.ErrReadOnly, wire.StatusReadOnly},
	{core.ErrSnapshotWrite, wire.StatusReadOnly},
	{shoremt.ErrTxDone, wire.StatusNoTx},
	{shoremt.ErrRollback, wire.StatusRolledBack},
	{wire.ErrTooLarge, wire.StatusTooLarge},
	{wire.ErrMalformed, wire.StatusProto},
}

// statusOf classifies an engine error by statusRows.
func statusOf(err error) wire.Status {
	for _, r := range statusRows {
		if errors.Is(err, r.err) {
			return r.status
		}
	}
	return wire.StatusErr
}
