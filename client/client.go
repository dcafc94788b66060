// Package client is the Go client for shored, the network front end of
// the shoremt storage engine. It speaks the length-prefixed binary
// protocol of internal/wire: one synchronous request/response exchange
// at a time per connection. Data ops travel only in batches — a whole
// transaction in one round trip, or fragments of the session's explicit
// one (BeginBatch, Tx.Run, Tx.RunCommit); a single op is a one-op batch.
// A batch entry can also call a program the server's host registered
// (Batch.Call): a whole transaction body, named by its catalog id.
//
// Quick start:
//
//	c, err := client.Dial("localhost:4000", client.Options{})
//	defer c.Close()
//	// One round trip, server-managed transaction (deadlock retry
//	// included):
//	var got *client.Lookup
//	err = c.Update(ctx, func(b *client.Batch) {
//		b.IndexInsert(store, []byte("k"), []byte("v"))
//		got = b.IndexGet(store, []byte("k"))
//	})
//
// A Client is not safe for concurrent use; open one per goroutine
// (connections are cheap server-side — a blocked reader goroutine).
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// Options configures Dial.
type Options struct {
	// Timeout bounds each round trip (0 = 30s). Per-call contexts with
	// earlier deadlines win.
	Timeout time.Duration
}

// Client is one connection — and therefore one server session.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	sid     uint32
	timeout time.Duration
	buf     []byte // frame read scratch
	out     []byte // request build scratch
	closed  bool
}

// RID identifies a heap record on the wire.
type RID = wire.RID

// Dial connects and performs the session handshake.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts)
}

// NewClient wraps an established connection (any net.Conn, e.g. an
// in-process pipe in tests) and performs the handshake.
func NewClient(conn net.Conn, opts Options) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	c := &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: opts.Timeout,
	}
	resp, err := c.roundTrip(context.Background(), wire.OpHello, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	d := wire.NewDec(resp.Body)
	c.sid = d.U32()
	if err := d.Done(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Session returns the server-assigned session id.
func (c *Client) Session() uint32 { return c.sid }

// Close tears the connection down. A transaction still open on the
// session is rolled back by the server (rollback-on-disconnect).
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// Closed reports whether the connection is gone — closed by the caller,
// or poisoned by a transport error. A closed client cannot be reused
// (every call returns ErrClosed wrapped in the original failure's
// context); dial a fresh one.
func (c *Client) Closed() bool { return c.closed }

// fail poisons the client after a transport or framing error: the
// request/response pairing on the stream is desynchronized (a reply to
// an abandoned request would be mistaken for the next request's), so
// the connection must not be reused. The server rolls back any open
// transaction when it sees the close.
func (c *Client) fail() {
	c.closed = true
	c.conn.Close()
}

// roundTrip sends one request and reads its response, translating
// non-OK statuses into errors.
func (c *Client) roundTrip(ctx context.Context, op wire.Op, body []byte) (wire.Response, error) {
	if c.closed {
		return wire.Response{}, ErrClosed
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.fail()
		return wire.Response{}, err
	}
	c.out = wire.AppendRequest(c.out[:0], op, c.sid, body)
	if err := wire.WriteFrame(c.bw, c.out); err != nil {
		c.fail()
		return wire.Response{}, fmt.Errorf("client: write %v: %w", op, err)
	}
	if err := c.bw.Flush(); err != nil {
		c.fail()
		return wire.Response{}, fmt.Errorf("client: flush %v: %w", op, err)
	}
	payload, err := wire.ReadFrame(c.br, &c.buf)
	if err != nil {
		c.fail()
		return wire.Response{}, fmt.Errorf("client: read %v response: %w", op, err)
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil {
		c.fail()
		return wire.Response{}, err
	}
	if resp.Status != wire.StatusOK {
		return resp, &Error{Status: resp.Status, Aborted: resp.Flags&wire.FlagTxAborted != 0, Message: string(resp.Body)}
	}
	return resp, nil
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, wire.OpPing, nil)
	return err
}

// Resolve looks a name up in the server's catalog, returning the store
// id (or out-of-band value) and its kind.
func (c *Client) Resolve(ctx context.Context, name string) (uint32, byte, error) {
	var e wire.Enc
	e.Str(name)
	resp, err := c.roundTrip(ctx, wire.OpResolve, e.B)
	if err != nil {
		return 0, 0, err
	}
	d := wire.NewDec(resp.Body)
	id := d.U32()
	kind := d.U8()
	return id, kind, d.Done()
}

// CreateTable creates a heap table (inside the open transaction if any,
// else in its own server-managed transaction) and returns its store id.
func (c *Client) CreateTable(ctx context.Context) (uint32, error) {
	return c.create(ctx, wire.OpCreateTable)
}

// CreateIndex creates a B-tree index and returns its store id.
func (c *Client) CreateIndex(ctx context.Context) (uint32, error) {
	return c.create(ctx, wire.OpCreateIndex)
}

func (c *Client) create(ctx context.Context, op wire.Op) (uint32, error) {
	resp, err := c.roundTrip(ctx, op, nil)
	if err != nil {
		return 0, err
	}
	d := wire.NewDec(resp.Body)
	id := d.U32()
	return id, d.Done()
}

// Stats fetches the server's counters plus the engine's statistics
// (raw JSON, matching core.EngineStats).
func (c *Client) Stats(ctx context.Context) (wire.ServerStats, json.RawMessage, error) {
	resp, err := c.roundTrip(ctx, wire.OpStats, nil)
	if err != nil {
		return wire.ServerStats{}, nil, err
	}
	var payload wire.StatsPayload
	if err := json.Unmarshal(resp.Body, &payload); err != nil {
		return wire.ServerStats{}, nil, err
	}
	return payload.Server, payload.Engine, nil
}

// Update runs fn's recorded batch inside a server-managed read-write
// transaction — one round trip, with the engine's deadlock retry on the
// server side. Result handles returned by the batch recorders are
// populated when Update returns nil.
func (c *Client) Update(ctx context.Context, fn func(b *Batch)) error {
	b := NewBatch()
	fn(b)
	return c.runBatch(ctx, b, wire.BatchUpdate)
}

// View is Update's read-only sibling (server-side DB.View).
func (c *Client) View(ctx context.Context, fn func(b *Batch)) error {
	b := NewBatch()
	fn(b)
	return c.runBatch(ctx, b, wire.BatchView)
}

// Begin opens the session's explicit transaction: an empty BeginBatch.
func (c *Client) Begin(ctx context.Context) (*Tx, error) {
	return c.BeginBatch(ctx, NewBatch())
}

// BeginBatch opens the explicit transaction AND runs b inside it, in
// one round trip. If any op fails the server rolls the transaction back
// (IsAborted(err) == true): a failed BeginBatch leaves nothing open.
func (c *Client) BeginBatch(ctx context.Context, b *Batch) (*Tx, error) {
	if err := c.runBatch(ctx, b, wire.BatchSession|wire.BatchBegin); err != nil {
		return nil, err
	}
	return &Tx{c: c}, nil
}

// runBatch ships a recorded batch with the given flags and decodes the
// results back into the recorders.
func (c *Client) runBatch(ctx context.Context, b *Batch, flags uint8) error {
	var e wire.Enc
	if err := wire.AppendBatch(&e, flags, b.ops); err != nil {
		return err
	}
	resp, err := c.roundTrip(ctx, wire.OpBatch, e.B)
	if err != nil {
		return err
	}
	return b.decodeResults(resp.Body)
}

// Tx is a handle on the session's open explicit transaction. All its
// round trips go through the owning Client.
type Tx struct {
	c    *Client
	done bool
}

// Commit commits the transaction: an empty RunCommit.
func (t *Tx) Commit(ctx context.Context) error {
	return t.RunCommit(ctx, NewBatch())
}

// Rollback rolls the transaction back. Calling it after an error that
// already carried the tx-aborted flag (see IsAborted) is unnecessary
// but harmless client-side; skip it to save the round trip.
func (t *Tx) Rollback(ctx context.Context) error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	_, err := t.c.roundTrip(ctx, wire.OpRollback, nil)
	return err
}

// Run executes b's ops inside the transaction (one round trip, no
// commit). If the returned error carries the aborted flag the
// transaction is gone — see IsAborted.
func (t *Tx) Run(ctx context.Context, b *Batch) error {
	if t.done {
		return ErrTxDone
	}
	err := t.c.runBatch(ctx, b, wire.BatchSession)
	if IsAborted(err) {
		t.done = true // the server already rolled it back
	}
	return err
}

// RunCommit executes b's ops and commits, in one round trip. On ANY
// failure the server rolls the transaction back (the returned error
// reports IsAborted(err) == true) so the whole unit of work can simply
// be retried.
func (t *Tx) RunCommit(ctx context.Context, b *Batch) error {
	if t.done {
		return ErrTxDone
	}
	err := t.c.runBatch(ctx, b, wire.BatchSession|wire.BatchCommit)
	if err == nil || IsAborted(err) {
		t.done = true
	}
	return err
}

// KV is one scan result pair.
type KV struct {
	Key   []byte
	Value []byte
}
