package tpcc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/closed"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/tx"
)

// Executor runs the five transactions on one back end: the engine's
// managed transactions or the partition executor ((*DB).Executor), or a
// server (Redial).
type Executor struct {
	Payment     func(context.Context, PaymentInput) error
	NewOrder    func(context.Context, NewOrderInput) error
	OrderStatus func(context.Context, OrderStatusInput) (OrderStatusResult, error)
	StockLevel  func(context.Context, StockLevelInput) (int, error)
	Delivery    func(context.Context, DeliveryInput) (int, error)
	Close       func() // releases what the executor holds; nil if nothing
}

// Executor returns the executor db's engine configuration calls for: the
// managed transactions, or under Config.DORA the partition executor. Its
// writers lock in their partitions' tables only, so a reader locking in
// the shared manager would see rows they have not committed: partitioned
// readers run through the partition executor too, unless Snapshot readers,
// which lock nowhere, can stay on the View path.
func (db *DB) Executor() Executor {
	ex := Executor{db.PaymentCtx, db.NewOrderCtx, db.OrderStatusCtx, db.StockLevelCtx, db.DeliveryCtx, nil}
	if cfg := db.Engine.Config(); cfg.DORA {
		ex.Payment, ex.NewOrder, ex.Delivery = db.DoraPayment, db.DoraNewOrder, db.DoraDelivery
		if !cfg.Snapshot {
			ex.OrderStatus, ex.StockLevel = db.DoraOrderStatus, db.DoraStockLevel
		}
	}
	return ex
}

// Type is one of the five transactions.
type Type int

const (
	Payment Type = iota
	NewOrder
	OrderStatus
	StockLevel
	Delivery
	Types // the number of types
)

func (t Type) String() string {
	return [...]string{"payment", "new order", "order status", "stock level", "delivery"}[t]
}

// Mix is the share of each transaction in percent, Mix{Payment: 50,
// NewOrder: 50} say; the shares add to 100. A client draws r.Int(1, 100)
// once per transaction and walks the shares in Type order.
type Mix [Types]int

func (m Mix) draw(r *Rand) Type {
	n := r.Int(1, 100)
	for typ, share := range m {
		if n -= share; n <= 0 {
			return Type(typ)
		}
	}
	panic(fmt.Sprintf("tpcc: mix %v does not add to 100", m))
}

// Counts counts transactions by Type.
type Counts [Types]atomic.Uint64

// Sum adds the counts up over the types.
func (c *Counts) Sum() (n uint64) {
	for i := range c {
		n += c[i].Load()
	}
	return n
}

// Tally is what a run's clients were told, booked as the answers come:
// acknowledged, rolled back by the spec's 1 % user abort, failed, and cut
// off by the end of the run before an answer came.
type Tally struct {
	Scale                       Scale
	Acked, Aborted, Failed, Cut Counts
	Lines                       atomic.Uint64   // order lines of acknowledged New Orders
	Delivered                   atomic.Uint64   // orders acknowledged Deliveries delivered
	orders                      []atomic.Uint64 // acknowledged New Orders by district

	mu     sync.Mutex
	Errors map[string]int // a sample of the failures' messages
}

// NewTally returns an empty tally for a database of the given scale.
func NewTally(scale Scale) *Tally {
	return &Tally{Scale: scale, orders: make([]atomic.Uint64, scale.Warehouses*scale.Districts), Errors: map[string]int{}}
}

// district numbers district d of warehouse w from 0.
func (s Scale) district(w uint32, d uint8) int { return int(w-1)*s.Districts + int(d-1) }

// book counts one answer of a typ transaction run under ctx.
func (t *Tally) book(ctx context.Context, typ Type, err error) {
	switch {
	case err == nil:
		t.Acked[typ].Add(1)
	case errors.Is(err, ErrUserAbort):
		t.Aborted[typ].Add(1)
	case ctx.Err() != nil:
		t.Cut[typ].Add(1)
	default:
		t.Failed[typ].Add(1)
		t.mu.Lock()
		if len(t.Errors) < 16 || t.Errors[err.Error()] > 0 {
			t.Errors[err.Error()]++
		}
		t.mu.Unlock()
	}
}

// ackNewOrder books what an acknowledged New Order added.
func (t *Tally) ackNewOrder(in NewOrderInput) {
	t.Lines.Add(uint64(len(in.Lines)))
	t.orders[t.Scale.district(in.WID, in.DID)].Add(1)
}

// run draws the inputs of a typ transaction homed on home and runs it on
// ex. A Delivery that finds nothing to deliver is done, as the spec has it.
func (t *Tally) run(ctx context.Context, ex Executor, typ Type, r *Rand, home uint32) (err error) {
	switch s := t.Scale; typ {
	case Payment:
		err = ex.Payment(ctx, GenPayment(r, s, home))
	case NewOrder:
		in := GenNewOrder(r, s, home)
		if err = ex.NewOrder(ctx, in); err == nil {
			t.ackNewOrder(in)
		}
	case OrderStatus:
		_, err = ex.OrderStatus(ctx, GenOrderStatus(r, s, home))
	case StockLevel:
		_, err = ex.StockLevel(ctx, GenStockLevel(r, s, home))
	case Delivery:
		var n int
		if n, err = ex.Delivery(ctx, GenDelivery(r, s, home)); err == nil || errors.Is(err, ErrNothingToDeliver) {
			t.Delivered.Add(uint64(n))
			err = nil
		}
	}
	return err
}

// Drive runs clients clients of mix on a database of t's scale until ctx
// ends, books every answer in t, and returns once the last has drained.
// Each client runs on an executor of its own from open, all of them opened
// before any client starts, and closes it at the end. Client c draws from
// NewRand(seed+c) and is homed on warehouse c mod W + 1. A client stops
// early at its first answer that says its back end closed (a crash, say):
// every later one would say the same, and Audit counts each as unanswered.
func Drive(ctx context.Context, open func() Executor, mix Mix, clients int, seed int64, t *Tally) {
	exs := make([]Executor, clients)
	for c := range exs {
		exs[c] = open()
	}
	var wg sync.WaitGroup
	for c, ex := range exs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ex.Close != nil {
				defer ex.Close()
			}
			r, home := NewRand(seed+int64(c)), uint32(c%t.Scale.Warehouses+1)
			for ctx.Err() == nil {
				typ := mix.draw(r)
				err := t.run(ctx, ex, typ, r, home)
				t.book(ctx, typ, err)
				if errors.Is(err, closed.Err) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Baseline is what Audit measures a run's growth from: the rows of each
// table and every district's tally (consistency.go).
type Baseline struct {
	rows      [tHistory + 1]int
	districts []districtTally
}

// Baseline runs Index.Verify on every index of db and CheckConsistency,
// and reads db's Baseline.
func (db *DB) Baseline(ctx context.Context) (b Baseline, err error) {
	for tab, ix := range db.indexes() {
		if b.rows[tab], err = (*ix).Verify(); err != nil {
			return b, fmt.Errorf("%w: index of table %d: %w", ErrInconsistent, tab, err)
		}
	}
	err = db.Engine.RunViewCtx(ctx, retryPolicy, func(t *tx.Tx) (err error) {
		if b.districts, err = db.checkConsistency(ctx, t); err != nil {
			return err
		}
		b.rows[tHistory] = 0
		return db.Engine.HeapScanCtx(ctx, t, db.History, func(page.RID, []byte) bool { b.rows[tHistory]++; return true })
	})
	return b, err
}

// Audit checks db after a run that began at base, or after a crash and
// reopen, against what t's clients were told. Every index must verify and
// CheckConsistency pass, or Audit returns that failure alone. ORDERS,
// NEW-ORDER, ORDER-LINE and HISTORY, and the districts' D_NEXT_O_ID, must
// each have grown by at least what was acknowledged and at most that plus
// what got no answer (failed, or cut off). Every acknowledged order id must
// be in ORDERS: a district's D_NEXT_O_ID must have passed every New Order
// acknowledged there, and CheckConsistency finds its ORDERS ids gapless.
// Audit returns every such violation, joined.
func (db *DB) Audit(ctx context.Context, base Baseline, t *Tally) error {
	now, err := db.Baseline(ctx)
	if err != nil {
		return err
	}
	var errs []error
	grew := func(what string, n, acked, unanswered int) {
		if n < acked || n > acked+unanswered {
			errs = append(errs, fmt.Errorf("%w: %s grew by %d, %d acknowledged and %d unanswered", ErrInconsistent, what, n, acked, unanswered))
		}
	}
	ack := func(typ Type) int { return int(t.Acked[typ].Load()) }
	lost := func(typ Type) int { return int(t.Failed[typ].Load() + t.Cut[typ].Load()) }
	rows := func(tab table) int { return now.rows[tab] - base.rows[tab] }
	undelivered := db.Scale.Districts * lost(Delivery) // a Delivery takes a row off each district
	grew("ORDERS", rows(tOrders), ack(NewOrder), lost(NewOrder))
	grew("NEW-ORDER, plus the orders delivered", rows(tNewOrder)+int(t.Delivered.Load())+undelivered, ack(NewOrder), lost(NewOrder)+undelivered)
	grew("ORDER-LINE", rows(tOrderLine), int(t.Lines.Load()), maxLines*lost(NewOrder))
	grew("HISTORY", rows(tHistory), ack(Payment), lost(Payment))
	next := 0
	for i, d := range now.districts {
		from, acked := base.districts[i].nextOID, t.orders[i].Load()
		if next += int(d.nextOID) - int(from); uint64(d.nextOID) < uint64(from)+acked {
			errs = append(errs, fmt.Errorf("%w: district %d/%d: D_NEXT_O_ID %d, %d New Orders acknowledged from %d",
				ErrInconsistent, i/db.Scale.Districts+1, i%db.Scale.Districts+1, d.nextOID, acked, from))
		}
	}
	grew("D_NEXT_O_ID", next, ack(NewOrder), lost(NewOrder))
	return errors.Join(errs...)
}

// Reopen returns db's tables on e, an engine reopened over db's volume and
// log (after a crash, say): every index is opened by its store id.
func (db *DB) Reopen(e *core.Engine) (*DB, error) {
	re, old := &DB{Engine: e, Scale: db.Scale, History: db.History}, db.indexes()
	for i, ix := range re.indexes() {
		var err error
		if *ix, err = e.OpenIndex((*old[i]).Store()); err != nil {
			return nil, err
		}
	}
	re.registerPrograms()
	return re, nil
}
