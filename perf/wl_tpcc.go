package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	shoremt "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/tpcc"
)

// The three TPC-C workloads run Figure 5's mix — half Payment, half New
// Order — with identical inputs: one warehouse per client, every client
// homed on its own warehouse, 15 % remote payments and 1 % remote stock
// lines as tpcc.Gen* draw them. They differ only in the path a
// transaction takes into the engine, so each pair of rows isolates one
// part of the system.
var (
	// tpccEmbedded calls the engine in process: shared lock manager,
	// latched B-tree descents, a log flush per commit. The partition
	// executor, the server and the version store are off its path.
	tpccEmbedded = workload{
		name: "tpcc-embedded", types: tpccTypes, traceEvery: 1,
		open: func(env *env) (instance, error) { return openTpcc(env, false) },
	}
	// tpccPartitioned routes the same traffic through DORA and the
	// latch-free owner descents of PLP, and takes the shared lock table
	// off the path.
	tpccPartitioned = workload{
		name: "tpcc-partitioned", types: tpccTypes, traceEvery: 1,
		open: func(env *env) (instance, error) { return openTpcc(env, true) },
	}
	// tpccRemote sends it over loopback TCP to an in-process server, two
	// round trips per transaction: the difference to tpcc-embedded is the
	// front end.
	tpccRemote = workload{name: "tpcc-remote", types: tpccTypes, traceEvery: 1, open: openTpccRemote}
)

var tpccTypes = []string{"payment", "neworder"}

const (
	typPayment = iota
	typNewOrder
)

// tpccAcks is what one client was told: the basis of the count checks.
type tpccAcks struct {
	payments, newOrders, lines int
	failed                     [2]int // by transaction type
}

// tpccGen draws one client's transactions.
type tpccGen struct {
	r     *tpcc.Rand
	scale tpcc.Scale
	home  uint32
	acks  tpccAcks
}

func newTpccGen(env *env, c int) tpccGen {
	return tpccGen{
		r:     tpcc.NewRand(env.seed*1000 + int64(c)),
		scale: env.sz.tpcc,
		home:  uint32(c%env.sz.tpcc.Warehouses + 1),
	}
}

// one draws and runs the next transaction through the two entry points
// of a driver, and books the acknowledgement.
func (g *tpccGen) one(
	payment func(tpcc.PaymentInput) error, newOrder func(tpcc.NewOrderInput) error,
) (int, error) {
	if g.r.Int(1, 100) <= 50 {
		err := payment(tpcc.GenPayment(g.r, g.scale, g.home))
		if err == nil {
			g.acks.payments++
		} else {
			g.acks.failed[typPayment]++
		}
		return typPayment, err
	}
	in := tpcc.GenNewOrder(g.r, g.scale, g.home)
	err := newOrder(in)
	switch {
	case err == nil:
		g.acks.newOrders++
		g.acks.lines += len(in.Lines)
	case !errors.Is(err, tpcc.ErrUserAbort):
		g.acks.failed[typNewOrder]++
	}
	return typNewOrder, err
}

// tpccCounts is the size of the four tables transactions grow.
type tpccCounts struct{ orders, newOrders, orderLines, history int }

// tpccStores names the catalog by store id, so the same checks run on
// the loaded engine and on the one restart recovery hands back.
type tpccStores struct {
	indexes                                map[string]uint32
	orders, newOrders, orderLines, history uint32
}

func storesOf(db *tpcc.DB) tpccStores {
	return tpccStores{
		indexes: map[string]uint32{
			"warehouse": db.Warehouse.Store(), "district": db.District.Store(),
			"customer": db.Customer.Store(), "orders": db.Orders.Store(),
			"neworder": db.NewOrderTab.Store(), "orderline": db.OrderLine.Store(),
			"item": db.Item.Store(), "stock": db.Stock.Store(),
		},
		orders: db.Orders.Store(), newOrders: db.NewOrderTab.Store(),
		orderLines: db.OrderLine.Store(), history: db.History,
	}
}

// verify runs Index.Verify on every catalog index of e and counts the
// four growing tables.
func (s tpccStores) verify(e *core.Engine) (tpccCounts, []check) {
	var n tpccCounts
	var out []check
	keys := map[uint32]int{}
	for name, store := range s.indexes {
		c := check{Name: "verify index " + name}
		ix, err := e.OpenIndex(store)
		if err == nil {
			keys[store], err = ix.Verify()
		}
		if err != nil {
			c.Detail = err.Error()
		}
		c.OK = err == nil
		out = append(out, c)
	}
	n.orders, n.newOrders, n.orderLines = keys[s.orders], keys[s.newOrders], keys[s.orderLines]
	rows, err := heapRows(e, s.history)
	if err != nil {
		out = append(out, check{Name: "scan history", Detail: err.Error()})
	}
	n.history = rows
	return n, out
}

// tpccState is what the count checks need: the catalog, the table sizes
// right after load and every client's acknowledgements.
type tpccState struct {
	stores tpccStores
	base   tpccCounts
	acks   []*tpccAcks
}

// checks compares the growth of the four tables on e since load with
// what the clients were acknowledged.
func (s *tpccState) checks(e *core.Engine) []check {
	var a tpccAcks
	for _, c := range s.acks {
		a.payments += c.payments
		a.newOrders += c.newOrders
		a.lines += c.lines
		a.failed[typPayment] += c.failed[typPayment]
		a.failed[typNewOrder] += c.failed[typNewOrder]
	}
	now, out := s.stores.verify(e)
	inDoubt := a.failed[typNewOrder]
	return append(out,
		checkEq("orders grew by acknowledged New Orders", now.orders-s.base.orders, a.newOrders, inDoubt),
		checkEq("neworder grew by acknowledged New Orders", now.newOrders-s.base.newOrders, a.newOrders, inDoubt),
		checkEq("orderline grew by acknowledged order lines", now.orderLines-s.base.orderLines, a.lines, 15*inDoubt),
		checkEq("history grew by acknowledged Payments", now.history-s.base.history, a.payments, a.failed[typPayment]),
	)
}

// growPerWarehouse is how many New Orders set-up runs one at a time on
// every warehouse before the clients start. The loader leaves NEW-ORDER
// and ORDER-LINE empty, and an empty tree's root is a leaf; when that
// leaf splits while a second writer waits for its latch, the engine
// lets the waiter insert its leaf entry into what is now a branch
// (README.md, "Engine defects found", 2). A leaf entry takes at least
// 15 bytes — a 9-byte key, its length and a slot — so no leaf holds
// page.Size/15 keys, and page.Size/12 New Orders less the 1 % that roll
// back leave every tree, and under PLP every warehouse's segment, with
// a branch for a root before two writers meet in it.
const growPerWarehouse = page.Size / 12

// growOrderTrees runs those New Orders. The generator is its own, so
// the clients' inputs do not depend on it.
func growOrderTrees(env *env, newOrder func(tpcc.NewOrderInput) error) error {
	r := tpcc.NewRand(env.seed*1000 + 999)
	for w := 1; w <= env.sz.tpcc.Warehouses; w++ {
		for i := 0; i < growPerWarehouse; i++ {
			err := newOrder(tpcc.GenNewOrder(r, env.sz.tpcc, uint32(w)))
			if err != nil && !errors.Is(err, tpcc.ErrUserAbort) {
				return fmt.Errorf("growing the order trees: %w", err)
			}
		}
	}
	return nil
}

// loadTpcc loads the database, grows the order trees past their root
// leaf through the path the workload takes (DORA's when partitioned),
// takes the first checkpoint and counts the tables the checks compare
// against.
func loadTpcc(e *core.Engine, env *env, partitioned bool) (*tpcc.DB, tpccState, error) {
	db, err := tpcc.Load(e, env.sz.tpcc, env.seed)
	if err != nil {
		return nil, tpccState{}, err
	}
	newOrder := func(in tpcc.NewOrderInput) error { return db.NewOrderCtx(context.Background(), in) }
	if partitioned {
		newOrder = func(in tpcc.NewOrderInput) error { return db.DoraNewOrder(context.Background(), in) }
	}
	if err := growOrderTrees(env, newOrder); err != nil {
		return nil, tpccState{}, err
	}
	if err := e.Checkpoint(); err != nil {
		return nil, tpccState{}, err
	}
	st := tpccState{stores: storesOf(db)}
	var checks []check
	st.base, checks = st.stores.verify(e)
	for _, c := range checks {
		if !c.OK {
			return nil, tpccState{}, fmt.Errorf("freshly loaded database: %s: %s", c.Name, c.Detail)
		}
	}
	return db, st, nil
}

type tpccInstance struct {
	*embedded
	tpccState
	clients []*tpccClient
}

type tpccClient struct {
	tpccGen
	payment  func(tpcc.PaymentInput) error
	newOrder func(tpcc.NewOrderInput) error
}

func (c *tpccClient) run(*txnTrace) (int, error) { return c.one(c.payment, c.newOrder) }

func openTpcc(env *env, partitioned bool) (instance, error) {
	cfg := baseConfig(env, env.sz.tpccFrames)
	if partitioned {
		cfg.PLP = true // implies DORA
		cfg.DoraKeys = env.sz.tpcc.Warehouses
		// One partition per processor, but no more than there are routing
		// keys: what the engine would clamp to, without its log line.
		cfg.DoraPartitions = min(runtime.GOMAXPROCS(0), cfg.DoraKeys)
	}
	b, err := openEmbedded(env, cfg)
	if err != nil {
		return nil, err
	}
	in := &tpccInstance{embedded: b}
	db, st, err := loadTpcc(b.e, env, partitioned)
	if err != nil {
		return nil, err
	}
	in.tpccState = st
	ctx := context.Background()
	for c := 0; c < env.sz.clients; c++ {
		cl := &tpccClient{tpccGen: newTpccGen(env, c)}
		if partitioned {
			cl.payment = func(in tpcc.PaymentInput) error { return db.DoraPayment(ctx, in) }
			cl.newOrder = func(in tpcc.NewOrderInput) error { return db.DoraNewOrder(ctx, in) }
		} else {
			cl.payment = func(in tpcc.PaymentInput) error { return db.PaymentCtx(ctx, in) }
			cl.newOrder = func(in tpcc.NewOrderInput) error { return db.NewOrderCtx(ctx, in) }
		}
		in.clients = append(in.clients, cl)
		in.acks = append(in.acks, &cl.acks)
	}
	return in, nil
}

func (in *tpccInstance) client(c int) worker { return in.clients[c] }

func (in *tpccInstance) check() []check { return in.checks(in.e) }

func (in *tpccInstance) crash() *recovered { return in.crashAndCheck(in.check) }

func (in *tpccInstance) payloadBytes() float64 { return 0 }

func (in *tpccInstance) close() error { return in.e.Close() }

// remoteInstance is tpcc-remote: the shipped front end, as cmd/shored
// assembles it, on a loopback listener.
type remoteInstance struct {
	tpccState
	db      *shoremt.DB
	srv     *server.Server
	served  chan error
	clients []*remoteClient
}

type remoteClient struct {
	tpccGen
	c    *client.Client
	r    *tpcc.Remote
	conn *clientConn // nil unless the run is traced
	num  int32
}

func openTpccRemote(env *env) (instance, error) {
	db, err := shoremt.Open(shoremt.Options{
		BufferFrames:    env.sz.tpccFrames,
		CleanerInterval: 10 * time.Millisecond,
		CheckpointEvery: checkpointEvery,
		LogSegmentBytes: logSegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	in := &remoteInstance{db: db, served: make(chan error, 1)}
	tdb, st, err := loadTpcc(db.Engine(), env, false)
	if err != nil {
		return nil, err
	}
	in.tpccState = st
	in.srv = server.New(db, server.Options{})
	for _, e := range tdb.Catalog() {
		in.srv.RegisterStore(e.Name, e.ID, e.Kind)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if env.srv != nil {
		l = &timedListener{Listener: l, rec: env.srv}
	}
	go func() { in.served <- in.srv.Serve(l) }()

	ctx := context.Background()
	for c := 0; c < env.sz.clients; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		cl := &remoteClient{tpccGen: newTpccGen(env, c), num: int32(c + 1)}
		if env.srv != nil {
			env.srv.peers[conn.LocalAddr().String()] = cl.num
			cl.conn = &clientConn{Conn: conn}
			conn = cl.conn
		}
		if cl.c, err = client.NewClient(conn, client.Options{}); err != nil {
			return nil, err
		}
		if cl.r, err = tpcc.OpenRemote(ctx, cl.c, nil); err != nil {
			return nil, err
		}
		in.clients = append(in.clients, cl)
		in.acks = append(in.acks, &cl.acks)
	}
	return in, nil
}

func (in *remoteInstance) client(c int) worker { return in.clients[c] }

func (c *remoteClient) run(tt *txnTrace) (int, error) {
	ctx := context.Background()
	typ, err := c.one(
		func(in tpcc.PaymentInput) error { return c.r.Payment(ctx, in) },
		func(in tpcc.NewOrderInput) error { return c.r.NewOrder(ctx, in) },
	)
	if c.conn != nil {
		// Drained every transaction, traced or not, so a traced one sees
		// only its own round trips.
		for _, rt := range c.conn.take() {
			if tt != nil {
				tt.childSpan(span{name: "wire.roundtrip", start: rt.start, end: rt.end, conn: c.num, seq: rt.seq, bytes: rt.bytes})
			}
		}
	}
	return typ, err
}

func (in *remoteInstance) counters() counters {
	c := engineCounters(in.db.Stats())
	c.addServer(in.srv.Stats())
	return c
}

func (in *remoteInstance) check() []check {
	out := in.checks(in.db.Engine())
	// The statistics a remote operator would read must agree with the
	// server's own.
	wireStats, _, err := in.clients[0].c.Stats(context.Background())
	c := check{Name: "client.Stats matches the server", OK: err == nil && wireStats.Batches == in.srv.Stats().Batches}
	if !c.OK {
		c.Detail = fmt.Sprintf("over the wire %+v (%v), in process %+v", wireStats, err, in.srv.Stats())
	}
	return append(out, c)
}

// crash is nil: shoremt.Open owns the volume and the log, so the
// benchmark cannot reopen them; the embedded workloads cover recovery.
func (in *remoteInstance) crash() *recovered { return nil }

func (in *remoteInstance) payloadBytes() float64 { return 0 }

func (in *remoteInstance) config() core.Config { return in.db.Engine().Config() }

func (in *remoteInstance) close() error {
	for _, c := range in.clients {
		_ = c.c.Close() // the server rolls back nothing: no transaction is open
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-in.served; err != nil {
		return err
	}
	return in.db.Close()
}
