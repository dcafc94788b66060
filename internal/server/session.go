package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	shoremt "repro"
	"repro/internal/wire"
)

// session binds one connection to the engine: the wire session id, the
// explicit transaction (if any), and the write half of the connection.
// Request execution is serialized per session — the reader does not
// parse the next frame until the worker finished the current one — so
// tx and the scratch buffers need no lock of their own.
type session struct {
	id   uint32
	srv  *Server
	conn net.Conn

	wmu sync.Mutex
	bw  *bufio.Writer

	tx    *shoremt.Tx // open explicit transaction, nil otherwise
	hasTx atomic.Bool // mirrors tx != nil for janitor/shutdown peeks

	inflight   atomic.Bool
	lastActive atomic.Int64 // unix nanos of the last frame

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
	sess.lastActive.Store(time.Now().UnixNano())
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
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if err := wire.WriteFrame(sess.bw, sess.out); err != nil {
		return
	}
	_ = sess.bw.Flush()
}

// readLoop parses frames and pushes them through admission until the
// connection dies or turns protocol-broken.
func (sess *session) readLoop() {
	s := sess.srv
	br := bufio.NewReader(sess.conn)
	var buf []byte
	hello := false
	for {
		payload, err := wire.ReadFrame(br, &buf)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				// The stream cannot be resynchronized past an oversized
				// frame: report and hang up.
				sess.reply(wire.StatusTooLarge, 0, []byte(err.Error()))
			}
			return
		}
		sess.lastActive.Store(time.Now().UnixNano())
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
		// new work — go through the bounded queue to the worker pool and
		// are shed immediately when it is full. Continuation requests
		// (the session already holds an admitted transaction's locks)
		// run INLINE on this reader goroutine: routing them through the
		// same pool deadlocks under contention — every worker blocks in
		// a lock wait while the lock holders' commit frames sit
		// unserved behind them in the queue. Inline execution
		// guarantees lock holders always make progress, and the
		// per-session serialization (one frame at a time) still holds.
		if entryRequest(req) {
			if s.draining.Load() {
				sess.reply(wire.StatusClosing, 0, []byte("server draining"))
				continue
			}
			t := &task{sess: sess, req: req, done: make(chan struct{})}
			sess.inflight.Store(true)
			select {
			case s.tasks <- t:
			default:
				sess.inflight.Store(false)
				s.st.sheds.Add(1)
				sess.reply(wire.StatusBusy, 0, []byte("admission queue full"))
				continue
			}
			maxInt64(&s.st.queueHighWater, int64(len(s.tasks)))
			<-t.done // frame buffer and scratch are reusable again
			sess.inflight.Store(false)
		} else {
			sess.inflight.Store(true)
			s.serve(&task{sess: sess, req: req})
			sess.inflight.Store(false)
		}
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
// left open (rollback-on-disconnect) and deregister. No worker can be
// executing for this session here — the reader never exits between
// enqueue and done.
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

// janitor reaps idle sessions: a connection with no traffic for
// IdleTimeout is closed, which funnels it through cleanup and rolls
// back its open transaction — an abandoned client cannot leak locks.
func (s *Server) janitor() {
	defer s.janitorWg.Done()
	interval := s.opts.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopped:
			return
		case <-tick.C:
		}
		deadline := time.Now().Add(-s.opts.IdleTimeout).UnixNano()
		s.mu.Lock()
		var victims []*session
		for _, sess := range s.sessions {
			if !sess.inflight.Load() && sess.lastActive.Load() < deadline {
				victims = append(victims, sess)
			}
		}
		s.mu.Unlock()
		for _, sess := range victims {
			s.st.idleCloses.Add(1)
			s.logf("server: closing idle session %d", sess.id)
			sess.conn.Close()
		}
	}
}
