package server

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"time"

	shoremt "repro"
	"repro/internal/wire"
)

// session binds one connection to the engine: the wire session id, the
// explicit transaction (if any), and the write half of the connection.
// The reader runs one request at a time and parses the next frame only
// after it replied, so tx, the writer and the scratch buffers need no
// lock.
type session struct {
	id   uint32
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer

	tx    *shoremt.Tx // open explicit transaction, nil otherwise
	hasTx atomic.Bool // mirrors tx != nil for Shutdown's drain

	inflight atomic.Bool // a request is running or waiting for a slot

	// Scratch buffers, reused across requests (safe: serialized).
	body wire.Enc // response body under construction
	out  []byte   // full response payload
}

// startSession registers conn and spawns its reader.
func (s *Server) startSession(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // request/response protocol: don't nagle
	}
	sess := &session{
		id:   s.nextSID.Add(1),
		srv:  s,
		conn: conn,
		bw:   bufio.NewWriter(conn),
	}
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.st.sessionsTotal.Add(1)
	maxInt64(&s.st.sessionsPeak, s.st.sessionsOpen.Add(1))
	s.readerWg.Add(1)
	go func() {
		defer s.readerWg.Done()
		sess.readLoop()
		sess.cleanup()
	}()
}

// reply writes one response frame; write errors are left to the read
// side to discover (the connection is torn either way).
func (sess *session) reply(status wire.Status, flags uint8, body []byte) {
	sess.out = wire.AppendResponse(sess.out[:0], status, flags, sess.id, body)
	if err := wire.WriteFrame(sess.bw, sess.out); err != nil {
		return
	}
	_ = sess.bw.Flush()
}

// readLoop parses frames and runs them through admission until the
// connection dies, goes idle or turns protocol-broken.
func (sess *session) readLoop() {
	s := sess.srv
	br := bufio.NewReader(sess.conn)
	var buf []byte
	hello := false
	for {
		if s.opts.IdleTimeout > 0 {
			_ = sess.conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		payload, err := wire.ReadFrame(br, &buf)
		if err != nil {
			switch {
			case errors.Is(err, wire.ErrTooLarge):
				// The stream cannot be resynchronized past an oversized
				// frame: report and hang up.
				sess.reply(wire.StatusTooLarge, 0, []byte(err.Error()))
			case errors.Is(err, os.ErrDeadlineExceeded):
				s.st.idleCloses.Add(1)
				s.logf("server: closing idle session %d", sess.id)
			}
			return
		}
		req, err := wire.ParseRequest(payload)
		if err != nil {
			// In-frame garbage: the framing is still synchronized, so
			// report and keep the connection.
			sess.reply(wire.StatusProto, 0, []byte(err.Error()))
			continue
		}
		switch req.Op {
		case wire.OpHello:
			hello = true
			var e wire.Enc
			e.U32(sess.id)
			sess.reply(wire.StatusOK, 0, e.B)
			continue
		case wire.OpPing:
			sess.reply(wire.StatusOK, 0, nil)
			continue
		}
		if !hello || req.Session != sess.id {
			sess.reply(wire.StatusBadSession, 0, []byte("session id mismatch (Hello first)"))
			continue
		}

		// Admission control. Entry requests — the ones that would start
		// new work — run only while they hold an execution slot, and are
		// shed when too many already wait for one. Continuation requests
		// (the session already holds an admitted transaction's locks)
		// need no slot: were they to wait for one, every slot could be
		// held by a request blocked in a lock wait while the lock
		// holders' commit frames wait behind them. inflight is set
		// before the wait, so a drain sees a waiting session as busy.
		sess.inflight.Store(true)
		var status wire.Status
		var flags uint8
		switch {
		case !entryRequest(req):
			status, flags = s.exec(sess, req)
		case s.draining.Load():
			status, flags = sess.refuse(wire.StatusClosing, "server draining")
		case !s.admit():
			s.st.sheds.Add(1)
			status, flags = sess.refuse(wire.StatusBusy, "admission queue full")
		default:
			status, flags = s.exec(sess, req)
			<-s.slots // before the reply: the client's next request finds it free
		}
		sess.reply(status, flags, sess.body.B)
		sess.inflight.Store(false)
	}
}

// entryRequest reports whether req starts new work (and is therefore
// sheddable), as opposed to continuing an already-admitted transaction:
// DDL, and every batch but a fragment of the session's open transaction.
func entryRequest(req wire.Request) bool {
	switch req.Op {
	case wire.OpCreateTable, wire.OpCreateIndex:
		return true
	case wire.OpBatch:
		// Malformed: classify as entry, the handler rejects it.
		return len(req.Body) == 0 || startsTx(req.Body[0])
	}
	return false
}

// cleanup runs when the reader exits: roll back whatever the session
// left open (rollback-on-disconnect) and deregister. No request of the
// session runs here: the reader runs them itself.
func (sess *session) cleanup() {
	s := sess.srv
	sess.conn.Close()
	if sess.tx != nil {
		_ = sess.tx.Abort()
		sess.setTx(nil) // also returns the open-transaction token
		s.st.disconnectRollbacks.Add(1)
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.st.sessionsOpen.Add(-1)
}
