// Package server is shored's network front end: it serves a shoremt.DB
// over the length-prefixed binary protocol of internal/wire, turning the
// embedded engine into a served system.
//
// Each connection has one goroutine, its reader: it parses a frame, runs
// the request and writes the reply before it reads the next frame. A
// reader spends its life blocked in Read, so connection counts can far
// exceed GOMAXPROCS, and a session's state needs no lock of its own.
//
//   - Requests that START new work (a batch with the begin bit, managed
//     batches, DDL) run only while they hold one of Options.Workers
//     execution slots. With none free they wait behind at most
//     QueueDepth others; past that, or past the open-transaction budget
//     (4×QueueDepth), they are refused at once with StatusBusy: load is
//     shed at the transaction boundary instead of being absorbed until
//     the server collapses.
//   - Requests that CONTINUE an admitted transaction take no slot and are
//     never shed. This is load-bearing: were they to need a slot, every
//     slot could be held by a request blocked in a lock wait while the
//     lock holders' commit frames wait for a slot. Lock holders always
//     progress, so admitted work drains whatever the slots are doing.
//   - A session binds the connection to the engine's transactions. A
//     disconnect — graceful or torn — rolls back the session's open
//     transaction, and a read deadline (Options.IdleTimeout) closes a
//     session that sends nothing, so a dead client can never leak locks.
package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	shoremt "repro"
	"repro/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Workers is the number of execution slots (0 = GOMAXPROCS): entry
	// requests running at once. The slots, not the connection count,
	// bound engine concurrency.
	Workers int
	// QueueDepth bounds the entry requests waiting for a slot (0 =
	// 4×Workers); one that arrives with QueueDepth already waiting is
	// shed with StatusBusy. It also sets the open-transaction budget,
	// 4×QueueDepth: a BatchBegin past it is shed too, so the lock
	// footprint of admitted-but-unfinished transactions stays bounded no
	// matter how many connections are parked on open transactions.
	QueueDepth int
	// IdleTimeout closes a session that sends no frame for this long,
	// rolling back its open transaction (0 = 5 minutes; negative never
	// closes one). The deadline runs only while the session's reader
	// waits for a frame, so a request in flight is never cut off.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives server diagnostics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	return o
}

// catalogEntry is a named store (or out-of-band value) for OpResolve.
type catalogEntry struct {
	id   uint32
	kind byte
}

// Server serves a shoremt.DB over the wire protocol. It does not own
// the DB: the caller closes it after Shutdown returns (DB.Close is
// idempotent, so belt-and-braces double closes in error paths are
// harmless).
type Server struct {
	db   *shoremt.DB
	opts Options

	baseCtx context.Context // parent of all session work
	cancel  context.CancelFunc

	slots    chan struct{} // execution slots held by running entry requests
	waiting  atomic.Int64  // entry requests waiting for a slot
	txTokens chan struct{} // open-transaction tokens (see Options.QueueDepth)

	mu        sync.Mutex
	sessions  map[uint32]*session
	listeners map[net.Listener]struct{}
	catalog   map[string]catalogEntry

	indexes sync.Map // uint32 -> *shoremt.Index (decoded handle cache)

	nextSID  atomic.Uint32
	draining atomic.Bool
	shutdown atomic.Bool

	readerWg sync.WaitGroup

	st counters
}

// ErrShutdown is returned by Serve when the server was shut down.
var ErrShutdown = errors.New("server: shut down")

// New builds a server for db; it starts no goroutine. Call Serve with
// one or more listeners, then Shutdown.
func New(db *shoremt.DB, opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:        db,
		opts:      opts,
		baseCtx:   ctx,
		cancel:    cancel,
		slots:     make(chan struct{}, opts.Workers),
		txTokens:  make(chan struct{}, 4*opts.QueueDepth),
		sessions:  make(map[uint32]*session),
		listeners: make(map[net.Listener]struct{}),
		catalog:   make(map[string]catalogEntry),
	}
	return s
}

// RegisterStore publishes a named store in the catalog so clients can
// resolve it (kind wire.KindIndex / KindHeap), or an out-of-band value
// (kind wire.KindMeta, id carries the value).
func (s *Server) RegisterStore(name string, id uint32, kind byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catalog[name] = catalogEntry{id: id, kind: kind}
}

// resolve looks a catalog name up.
func (s *Server) resolve(name string) (catalogEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.catalog[name]
	return e, ok
}

// index returns a cached handle for a B-tree store.
func (s *Server) index(store uint32) (*shoremt.Index, error) {
	if v, ok := s.indexes.Load(store); ok {
		return v.(*shoremt.Index), nil
	}
	ix, err := s.db.OpenIndex(store)
	if err != nil {
		return nil, err
	}
	v, _ := s.indexes.LoadOrStore(store, ix)
	return v.(*shoremt.Index), nil
}

// Serve accepts connections on l until Shutdown (returns nil) or a
// listener error. It may be called concurrently with multiple
// listeners.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		l.Close()
		return ErrShutdown
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() || s.shutdown.Load() {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

// logf emits a diagnostic when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// idle reports whether every session is quiescent: no open transaction,
// no request running or waiting for a slot.
func (s *Server) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		if sess.inflight.Load() || sess.hasTx.Load() {
			return false
		}
	}
	return true
}

// Shutdown drains and stops the server: it stops accepting, refuses new
// transactions (StatusClosing), lets in-flight sessions finish until
// every session is quiescent or ctx expires, then cancels outstanding
// engine waits, closes every connection (rolling back the transactions
// that didn't finish draining) and waits for the readers to exit. It
// does NOT close the DB — that is the caller's job, exactly once, after
// Shutdown returns. Shutdown is idempotent; concurrent calls beyond the
// first return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.shutdown.Swap(true) {
		return nil
	}
	s.draining.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	// Drain phase: in-flight transactions may run to completion.
	drained := false
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
drain:
	for {
		if s.idle() {
			drained = true
			break
		}
		select {
		case <-ctx.Done():
			break drain
		case <-tick.C:
		}
	}

	// Force phase: unblock any engine wait, tear down connections (the
	// per-session cleanup rolls back whatever is still open).
	s.cancel()
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.readerWg.Wait()
	if !drained {
		s.logf("server: drain window expired; forced rollback of remaining sessions")
	}
	return nil
}

// Close is Shutdown with no drain window.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

// admit takes an execution slot for an entry request, waiting behind at
// most QueueDepth others; false means the request is to be shed. The
// caller gives the slot back with <-s.slots.
func (s *Server) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	n := s.waiting.Add(1)
	defer s.waiting.Add(-1)
	if n > int64(s.opts.QueueDepth) {
		return false
	}
	maxInt64(&s.st.queueHighWater, n)
	s.slots <- struct{}{}
	return true
}

// acquireTxToken claims an open-transaction slot without blocking.
func (s *Server) acquireTxToken() bool {
	select {
	case s.txTokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// releaseTxToken returns a slot claimed by acquireTxToken.
func (s *Server) releaseTxToken() {
	select {
	case <-s.txTokens:
	default: // unbalanced release: tolerate rather than deadlock
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() wire.ServerStats { return s.st.snapshot() }
