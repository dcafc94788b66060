package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// The wire protocol is strict request/response with one frame in flight
// per connection, so both ends can be timed from the net.Conn seam with
// no knowledge of the framing: a request is the writes between two
// reads, a response the reads between two writes. Both ends count every
// exchange, handshake included, so the n-th server service span on a
// connection answers the n-th client round trip.

// roundTrip is one completed request/response on a client connection.
type roundTrip struct {
	start, end int64 // first request byte offered → last response byte read
	seq        int32
	bytes      int64 // request + response
}

// clientConn times round trips on the client's end. It is used by one
// goroutine, like the client.Client that owns it.
type clientConn struct {
	net.Conn
	seq      int32
	waiting  bool // a request has been written and not yet closed
	start    int64
	lastRead int64
	bytes    int64
	done     []roundTrip // completed since the last take
}

func (c *clientConn) Write(b []byte) (int, error) {
	if c.waiting && c.lastRead > c.start {
		c.closeTrip()
	}
	if !c.waiting {
		c.waiting, c.start, c.lastRead, c.bytes = true, nowNs(), 0, 0
	}
	n, err := c.Conn.Write(b)
	c.bytes += int64(n)
	return n, err
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.lastRead = nowNs()
		c.bytes += int64(n)
	}
	return n, err
}

func (c *clientConn) closeTrip() {
	c.seq++
	c.done = append(c.done, roundTrip{start: c.start, end: c.lastRead, seq: c.seq, bytes: c.bytes})
	c.waiting = false
}

// take returns the round trips completed since the last call. The slice
// is reused by the next call.
func (c *clientConn) take() []roundTrip {
	if c.waiting && c.lastRead > c.start {
		c.closeTrip()
	}
	out := c.done
	c.done = c.done[:0]
	return out
}

// serverConn times service on the server's end: from the last byte of a
// request being read to its response being handed to the socket. Reads
// happen on the session's reader goroutine and the write on a pool
// worker, hence the lock.
type serverConn struct {
	net.Conn
	rec *serverRec
	key string // the peer's address: the client connection's local address

	mu       sync.Mutex
	seq      int32
	pending  bool
	lastRead int64
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := nowNs()
		c.mu.Lock()
		c.pending, c.lastRead = true, now
		c.mu.Unlock()
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	end := nowNs()
	c.mu.Lock()
	if c.pending {
		c.pending = false
		c.seq++
		if c.rec.on.Load() {
			c.rec.add(c.key, span{name: "server.service", start: c.lastRead, end: end, seq: c.seq, bytes: int64(n)})
		}
	}
	c.mu.Unlock()
	return n, err
}

// serverRec collects service spans from every accepted connection,
// keyed by peer address until the run ends and connections are paired.
type serverRec struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans map[string][]span
	peers map[string]int32 // client connection's local address → its number
}

func newServerRec() *serverRec {
	return &serverRec{spans: map[string][]span{}, peers: map[string]int32{}}
}

func (r *serverRec) add(key string, s span) {
	r.mu.Lock()
	if len(r.spans[key]) < maxSpans {
		r.spans[key] = append(r.spans[key], s)
	}
	r.mu.Unlock()
}

// timedListener hands the server connections wrapped in serverConn.
type timedListener struct {
	net.Listener
	rec *serverRec
}

func (l *timedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: conn, rec: l.rec, key: conn.RemoteAddr().String()}, nil
}

// paired returns the service spans as a recorder, each numbered with its
// client connection and parented to the client round trip it answered:
// the one with the same sequence number on the paired connection.
func (r *serverRec) paired(clients []*recorder) *recorder {
	out := newRecorder(len(clients)+1, false)
	for key, spans := range r.spans {
		conn := r.peers[key]
		if conn == 0 {
			continue // not one of the benchmark's clients
		}
		trips := map[int32]*span{}
		rec := clients[conn-1]
		for i := range rec.spans {
			if s := &rec.spans[i]; s.name == "wire.roundtrip" {
				trips[s.seq] = s
			}
		}
		for _, s := range spans {
			s.conn = conn
			if rt := trips[s.seq]; rt != nil {
				s.parent, s.txn = rt.id, rt.txn
			}
			out.add(s)
		}
	}
	return out
}
