package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	shoremt "repro"
	"repro/internal/page"
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

// scanBudget bounds an OpIdxScan response body so it (plus headers)
// always fits a frame.
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

// exec dispatches the request; on error the message is left in
// sess.body and the status/flags describe it.
func (s *Server) exec(sess *session, req wire.Request) (wire.Status, uint8) {
	fail := func(status wire.Status, flags uint8, err error) (wire.Status, uint8) {
		sess.body.B = append(sess.body.B[:0], err.Error()...)
		return status, flags
	}
	switch req.Op {
	case wire.OpBegin:
		if len(req.Body) != 0 {
			return fail(wire.StatusProto, 0, fmt.Errorf("begin: non-empty body"))
		}
		if sess.tx != nil {
			return fail(wire.StatusTxOpen, 0, errors.New("transaction already open"))
		}
		if !s.acquireTxToken() {
			s.st.sheds.Add(1)
			return fail(wire.StatusBusy, 0, errors.New("open-transaction limit reached"))
		}
		tx, err := s.db.BeginCtx(s.baseCtx)
		if err != nil {
			s.releaseTxToken()
			return fail(statusOf(err), 0, err)
		}
		sess.setTx(tx)
		return wire.StatusOK, 0

	case wire.OpCommit:
		if sess.tx == nil {
			return fail(wire.StatusNoTx, 0, errors.New("no open transaction"))
		}
		err := sess.tx.Commit()
		if err != nil {
			flags := sess.abortTx()
			return fail(statusOf(err), flags, err)
		}
		sess.setTx(nil)
		return wire.StatusOK, 0

	case wire.OpRollback:
		if sess.tx == nil {
			return fail(wire.StatusNoTx, 0, errors.New("no open transaction"))
		}
		sess.abortTx()
		return wire.StatusOK, 0

	case wire.OpCreateTable, wire.OpCreateIndex:
		return s.execCreate(sess, req.Op)

	case wire.OpResolve:
		d := wire.NewDec(req.Body)
		name := d.Str()
		if err := d.Done(); err != nil {
			return fail(wire.StatusProto, 0, err)
		}
		e, ok := s.resolve(name)
		if !ok {
			return fail(wire.StatusNotFound, 0, fmt.Errorf("catalog: %q not registered", name))
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
			return fail(wire.StatusErr, 0, err)
		}
		sess.body.B = append(sess.body.B, b...)
		return wire.StatusOK, 0

	case wire.OpBatch:
		return s.execBatch(sess, req.Body)

	default: // single data op on the session transaction
		var op wire.DataOp
		d := wire.NewDec(req.Body)
		if err := wire.DecodeDataOp(d, req.Op, &op); err != nil {
			return fail(wire.StatusProto, 0, err)
		}
		if err := d.Done(); err != nil {
			return fail(wire.StatusProto, 0, err)
		}
		if sess.tx == nil {
			return fail(wire.StatusNoTx, 0, errors.New("no open transaction (use Begin or a managed batch)"))
		}
		if err := s.execDataOp(sess.tx, &op, &sess.body); err != nil {
			var flags uint8
			if abortWorthy(err) {
				flags = sess.abortTx()
			}
			return fail(statusOf(err), flags, err)
		}
		return wire.StatusOK, 0
	}
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
		var flags uint8
		if sess.tx != nil && abortWorthy(err) {
			flags = sess.abortTx()
		}
		sess.body.B = append(sess.body.B[:0], err.Error()...)
		return statusOf(err), flags
	}
	sess.body.U32(id)
	return wire.StatusOK, 0
}

// execBatch runs an OpBatch body: a whole transaction (or fragment) in
// one frame.
func (s *Server) execBatch(sess *session, body []byte) (wire.Status, uint8) {
	s.st.batches.Add(1)
	fail := func(status wire.Status, flags uint8, err error) (wire.Status, uint8) {
		sess.body.B = append(sess.body.B[:0], err.Error()...)
		return status, flags
	}
	batch, err := wire.DecodeBatch(body)
	if err != nil {
		return fail(wire.StatusProto, 0, err)
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
	switch batch.Flags & wire.BatchModeMask {
	case wire.BatchUpdate, wire.BatchView:
		if sess.tx != nil {
			return fail(wire.StatusTxOpen, 0, errors.New("managed batch with an explicit transaction open"))
		}
		if batch.Flags&wire.BatchModeMask == wire.BatchView {
			err = s.db.View(s.baseCtx, run)
		} else {
			err = s.db.Update(s.baseCtx, run)
		}
		if err != nil {
			return fail(statusOf(err), 0, err)
		}
		return wire.StatusOK, 0

	default: // session mode
		if batch.Flags&wire.BatchBegin != 0 {
			if sess.tx != nil {
				return fail(wire.StatusTxOpen, 0, errors.New("batch Begin with a transaction already open"))
			}
			if !s.acquireTxToken() {
				s.st.sheds.Add(1)
				return fail(wire.StatusBusy, 0, errors.New("open-transaction limit reached"))
			}
			tx, err := s.db.BeginCtx(s.baseCtx)
			if err != nil {
				s.releaseTxToken()
				return fail(statusOf(err), 0, err)
			}
			sess.setTx(tx)
		}
		if sess.tx == nil {
			return fail(wire.StatusNoTx, 0, errors.New("batch with no open transaction"))
		}
		if err := run(sess.tx); err != nil {
			var flags uint8
			// A commit-bound batch rolls back on ANY failure so the
			// client can always retry the whole unit of work; a
			// fragment only rolls back when the engine already killed
			// the transaction (deadlock victim, timeout, cancellation).
			if abortWorthy(err) || batch.Flags&wire.BatchCommit != 0 {
				flags = sess.abortTx()
			}
			return fail(statusOf(err), flags, err)
		}
		if batch.Flags&wire.BatchCommit != 0 {
			result := append([]byte(nil), sess.body.B...)
			if err := sess.tx.Commit(); err != nil {
				flags := sess.abortTx()
				return fail(statusOf(err), flags, err)
			}
			sess.setTx(nil)
			sess.body.B = append(sess.body.B[:0], result...)
		}
		return wire.StatusOK, 0
	}
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

// statusOf maps an engine error onto a wire status.
func statusOf(err error) wire.Status {
	switch {
	case errors.Is(err, shoremt.ErrDeadlock):
		return wire.StatusDeadlock
	case errors.Is(err, shoremt.ErrTimeout):
		return wire.StatusTimeout
	case errors.Is(err, shoremt.ErrCanceled):
		return wire.StatusCanceled
	case errors.Is(err, shoremt.ErrDuplicate):
		return wire.StatusDuplicate
	case errors.Is(err, shoremt.ErrNotFound):
		return wire.StatusNotFound
	case errors.Is(err, shoremt.ErrNoRecord):
		return wire.StatusNoRecord
	case errors.Is(err, shoremt.ErrReadOnly):
		return wire.StatusReadOnly
	case errors.Is(err, shoremt.ErrTxDone):
		return wire.StatusNoTx
	default:
		return wire.StatusErr
	}
}

// abortWorthy reports errors after which the engine requires the
// transaction to be rolled back (its locks may already be gone and
// retrying inside it is meaningless).
func abortWorthy(err error) bool {
	return errors.Is(err, shoremt.ErrDeadlock) ||
		errors.Is(err, shoremt.ErrTimeout) ||
		errors.Is(err, shoremt.ErrCanceled)
}
