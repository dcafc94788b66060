package tpcc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	shoremt "repro"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wire"
)

// backEnd is one way to run the plans: its executor, the database it
// changes, and (remote only) the server's counters.
type backEnd struct {
	name   string
	db     *DB
	ex     Executor
	server func() wire.ServerStats
}

// localBackEnd runs the plans on db's engine, through the partition
// executor when the engine has one.
func localBackEnd(name string, db *DB) backEnd { return backEnd{name: name, db: db, ex: db.Executor()} }

// remoteBackEnd serves a freshly loaded database from an in-process
// server on loopback and drives it through one connection.
func remoteBackEnd(t *testing.T, scale Scale) backEnd {
	sdb, err := shoremt.Open(shoremt.Options{CleanerInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(sdb.Engine(), scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sdb, server.Options{})
	for _, e := range db.Catalog() {
		srv.RegisterStore(e.Name, e.ID, e.Kind)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	ex := Redial(l.Addr().String(), &RemoteStats{})()
	t.Cleanup(func() {
		ex.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		<-served
		sdb.Close()
	})
	return backEnd{name: "remote", db: db, ex: ex, server: srv.Stats}
}

// agreeScript is one seeded run of Payments and New Orders — remote
// customers and supply lines, one rollback input and one unknown item
// among them — with a Delivery before every third pair, the first of
// which finds nothing to deliver, followed by Order-Status and
// Stock-Level queries.
type agreeScript struct {
	payments    []PaymentInput
	newOrders   []NewOrderInput
	deliveries  []DeliveryInput // before pair i; none where WID is 0
	orderStatus []OrderStatusInput
	stockLevel  []StockLevelInput
}

func newAgreeScript(scale Scale) agreeScript {
	r := NewRand(77)
	var s agreeScript
	for i := 0; i < 30; i++ {
		home := uint32(i%scale.Warehouses + 1)
		other := home%uint32(scale.Warehouses) + 1
		p := GenPayment(r, scale, home)
		if i%4 == 0 {
			p.CWID = other
		}
		no := GenNewOrder(r, scale, home)
		no.Rollback = i == 11
		if i%5 == 0 {
			no.Lines[len(no.Lines)/2].SupplyWID = other
		}
		if i == 17 {
			no.Lines[1].ItemID = uint32(scale.Items) + 9
		}
		var del DeliveryInput
		if i%3 == 0 {
			del = GenDelivery(r, scale, home)
		}
		s.payments = append(s.payments, p)
		s.newOrders = append(s.newOrders, no)
		s.deliveries = append(s.deliveries, del)
		if i%3 == 0 {
			s.orderStatus = append(s.orderStatus, OrderStatusInput{WID: no.WID, DID: no.DID, CID: no.CID})
		}
	}
	for w := 1; w <= scale.Warehouses; w++ {
		for d := 1; d <= scale.Districts; d++ {
			s.stockLevel = append(s.stockLevel, StockLevelInput{WID: uint32(w), DID: uint8(d), Threshold: 60})
		}
	}
	return s
}

// agreeRun is what one back end answered and what it left behind.
type agreeRun struct {
	outcomes []string
	dump     []string
}

// run plays the script on b. On the remote back end it also checks the
// round trips: every transaction is one request, a batch calling its
// program — a New Order that rolls back included, whose rollback the
// server runs in that frame, with no OpRollback after it.
func (s agreeScript) run(t *testing.T, b backEnd) agreeRun {
	var out agreeRun
	ctx := context.Background()
	count := func() wire.ServerStats {
		if b.server == nil {
			return wire.ServerStats{}
		}
		return b.server()
	}
	expect := func(what string, before wire.ServerStats) {
		if b.server != nil {
			now := b.server()
			if batches, requests := now.Batches-before.Batches, now.Requests-before.Requests; batches != 1 || requests != 1 {
				t.Errorf("%s: %s took %d requests, %d batches; want 1 batch", b.name, what, requests, batches)
			}
		}
	}
	for i := range s.payments {
		if in := s.deliveries[i]; in.WID != 0 {
			before := count()
			n, err := b.ex.Delivery(ctx, in)
			if err != nil && !errors.Is(err, ErrNothingToDeliver) {
				t.Fatalf("%s: delivery %d: %v", b.name, i, err)
			}
			expect(fmt.Sprintf("delivery %d", i), before)
			out.outcomes = append(out.outcomes, fmt.Sprintf("delivery %d: %d delivered (%v)", i, n, err))
		}
		before := count()
		if err := b.ex.Payment(ctx, s.payments[i]); err != nil {
			t.Fatalf("%s: payment %d: %v", b.name, i, err)
		}
		expect(fmt.Sprintf("payment %d", i), before)
		before = count()
		err := b.ex.NewOrder(ctx, s.newOrders[i])
		switch {
		case err == nil:
			expect(fmt.Sprintf("new order %d", i), before)
		case errors.Is(err, ErrUserAbort):
			expect(fmt.Sprintf("rolled-back new order %d", i), before)
		default:
			t.Fatalf("%s: new order %d: %v", b.name, i, err)
		}
		out.outcomes = append(out.outcomes, fmt.Sprintf("new order %d: user abort %v", i, err != nil))
	}
	for i, in := range s.orderStatus {
		before := count()
		res, err := b.ex.OrderStatus(ctx, in)
		if err != nil {
			t.Fatalf("%s: order status %d: %v", b.name, i, err)
		}
		expect(fmt.Sprintf("order status %d", i), before)
		res.Order.EntryDate = 0
		out.outcomes = append(out.outcomes, fmt.Sprintf("order status %+v: %+v", in, res))
	}
	for i, in := range s.stockLevel {
		before := count()
		low, err := b.ex.StockLevel(ctx, in)
		if err != nil {
			t.Fatalf("%s: stock level %d: %v", b.name, i, err)
		}
		expect(fmt.Sprintf("stock level %d", i), before)
		out.outcomes = append(out.outcomes, fmt.Sprintf("stock level %+v: %d", in, low))
	}
	out.dump = dumpTables(t, b.db)
	if err := b.db.CheckConsistency(context.Background()); err != nil {
		t.Errorf("%s: %v", b.name, err)
	}
	return out
}

// dumpTables lists every row of the eight indexes in key order and the
// HISTORY rows sorted, decoded, with the wall-clock dates zeroed.
func dumpTables(t *testing.T, db *DB) []string {
	rd, err := db.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Engine.Abort(rd)
	decode := [...]func([]byte) (any, error){
		tWarehouse: func(b []byte) (any, error) { return decodeWarehouse(b) },
		tDistrict:  func(b []byte) (any, error) { return decodeDistrict(b) },
		tCustomer:  func(b []byte) (any, error) { return decodeCustomer(b) },
		tOrders: func(b []byte) (any, error) {
			o, err := decodeOrder(b)
			o.EntryDate = 0
			return o, err
		},
		tNewOrder:  func(b []byte) (any, error) { return decodeNewOrderRow(b) },
		tOrderLine: func(b []byte) (any, error) { return decodeOrderLine(b) },
		tItem:      func(b []byte) (any, error) { return decodeItem(b) },
		tStock:     func(b []byte) (any, error) { return decodeStock(b) },
	}
	var dump []string
	for tab, ix := range db.indexes() {
		if err := db.Engine.IndexScan(rd, *ix, nil, nil, func(k, v []byte) bool {
			row, err := decode[tab](v)
			if err != nil {
				t.Errorf("table %d key %x: %v", tab, k, err)
			}
			dump = append(dump, fmt.Sprintf("%d %x %+v", tab, k, row))
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	var history []string
	if err := db.Engine.HeapScan(rd, db.History, func(_ page.RID, rec []byte) bool {
		h, err := decodeHistory(rec)
		if err != nil {
			t.Errorf("history: %v", err)
		}
		h.Date = 0
		history = append(history, fmt.Sprintf("history %+v", h))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(history)
	return append(dump, history...)
}

// TestBackEndsAgree runs one script of all five transactions through the
// four back ends the plans have — embedded, DORA with static routing,
// DORA over PLP, and remote against an in-process server — each on a
// fresh database loaded from the same seed. Every answer and every row of
// every table must come out the same, every remote transaction must take
// one batch, and each database must pass CheckConsistency.
func TestBackEndsAgree(t *testing.T) {
	scale := TinyScale()
	script := newAgreeScript(scale)
	backEnds := []backEnd{
		localBackEnd("embedded", newDB(t, scale)),
		localBackEnd("dora", newDoraDB(t, scale, 2)),
		localBackEnd("plp", newPlpDB(t, scale, 2)),
		remoteBackEnd(t, scale),
	}
	want := script.run(t, backEnds[0])
	aborts := 0
	for _, o := range want.outcomes {
		if strings.HasSuffix(o, "user abort true") {
			aborts++
		}
	}
	if aborts != 2 {
		t.Fatalf("%d New Orders rolled back, want 2 (the rollback input and the unknown item)", aborts)
	}
	delivered := 0
	for _, o := range want.outcomes {
		var i, n int
		if _, err := fmt.Sscanf(o, "delivery %d: %d delivered", &i, &n); err == nil {
			delivered += n
		}
	}
	if !strings.HasPrefix(want.outcomes[0], "delivery 0: 0 delivered") || delivered == 0 {
		t.Fatalf("the first Delivery answered %q and all delivered %d; want none, then some", want.outcomes[0], delivered)
	}
	for _, b := range backEnds[1:] {
		got := script.run(t, b)
		for _, c := range []struct {
			what      string
			got, want []string
		}{{"answers", got.outcomes, want.outcomes}, {"tables", got.dump, want.dump}} {
			if len(c.got) != len(c.want) {
				t.Errorf("%s: %d %s, embedded has %d", b.name, len(c.got), c.what, len(c.want))
				continue
			}
			for i := range c.got {
				if c.got[i] != c.want[i] {
					t.Errorf("%s %s differ at %d:\n  %s\nembedded:\n  %s", b.name, c.what, i, c.got[i], c.want[i])
					break
				}
			}
		}
	}
}
