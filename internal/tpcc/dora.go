package tpcc

import (
	"context"
	"errors"

	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/tx"
)

// The DORA executor. The keyspace is partitioned by warehouse
// (Executor.Route), and a transaction becomes one action per partition
// it touches. Partition-local lock keys form a small hierarchy anchored
// on the warehouse: fine-grained actions take an intent mode on the
// anchor plus absolute modes on the rows they read; an action that scans
// (Delivery, Stock-Level) takes an absolute mode on the anchor alone.
// ITEM is read-only after load and needs no lock at all.
//
// Cross-partition writes stay logically consistent without cross-
// partition lock names: a remote New Order action inserts ORDER_LINE
// rows keyed by the home district, but the home action holds that
// district's X lock until the rendezvous releases both actions together,
// so no reader can observe a torn order. After the unanimous decision
// one commit record commits every partition's sub-transaction
// (dora.Env.Precommit), so a crash cannot tear the order either.

// ErrDoraDisabled is returned by the Dora* entrypoints when the engine
// was opened without Config.DORA.
var ErrDoraDisabled = errors.New("tpcc: engine has no DORA executor")

// Partition-local lock key encoding: kind in the top byte, warehouse /
// district / row ids packed below (districts < 2^8, customers < 2^24,
// items and warehouses < 2^32).
const (
	dkWarehouse = uint64(iota+1) << 56 // per-warehouse hierarchy anchor
	dkWRow                             // the warehouse row itself
	dkDistrict
	dkCustomer
	dkStock
)

func kWh(w uint32) uint64            { return dkWarehouse | uint64(w) }
func kWRow(w uint32) uint64          { return dkWRow | uint64(w) }
func kDist(w uint32, d uint8) uint64 { return dkDistrict | uint64(w)<<8 | uint64(d) }
func kCust(w uint32, d uint8, c uint32) uint64 {
	return dkCustomer | uint64(w)<<32 | uint64(d)<<24 | uint64(c)
}
func kStock(w, i uint32) uint64 { return dkStock | uint64(w)<<32 | uint64(i) }

// lockKey is the row's partition-local lock key. ITEM has none, and the
// rows a plan inserts are covered by their district's lock.
func (r row) lockKey() (uint64, bool) {
	switch r.t {
	case tWarehouse:
		return kWRow(r.w), true
	case tDistrict:
		return kDist(r.w, r.d), true
	case tCustomer:
		return kCust(r.w, r.d, r.id), true
	case tStock:
		return kStock(r.w, r.id), true
	}
	return 0, false
}

// lockList builds a deduplicated lock set (same key twice folds modes
// via Supremum, like the lock manager's conversion rule).
type lockList []dora.LockReq

func (l *lockList) add(key uint64, m lock.Mode) {
	for i := range *l {
		if (*l)[i].Key == key {
			(*l)[i].Mode = lock.Supremum((*l)[i].Mode, m)
			return
		}
	}
	*l = append(*l, dora.LockReq{Key: key, Mode: m})
}

// action is one DORA action of a write plan: its steps, route and locks,
// and the writer its body runs through on its sub-transaction.
type action struct {
	group  int
	route  uint32
	steps  []step
	locks  lockList
	head   bool   // runs the step that allocates the order id
	depend bool   // runs a step that needs it
	v      uint32 // the value in force after its steps ran
	w      txWriter
}

// actions groups p's steps into DORA actions by the partition that owns
// each step's home warehouse (route), so steps on two warehouses of one
// partition share an action; ownership is fixed while the engine is
// open, so the planning-time answer holds at Submit. An action takes IX
// on the anchor of every row its steps read, the read's mode on the row
// itself. A scan cannot name the rows its step reads after it, so for a
// scan the action takes the scan's mode on the anchor instead. The
// actions live in p, reusing what an earlier plan left there.
func (p *plan) actions(route func(w uint32) int) []action {
	acts := p.acts[:0]
	for si := range p.steps {
		s := &p.steps[si]
		w := s.home()
		g := route(w)
		i := 0
		for i < len(acts) && acts[i].group != g {
			i++
		}
		if i == len(acts) {
			if i < cap(acts) {
				acts = acts[:i+1]
			} else {
				acts = append(acts, action{})
			}
			a := &acts[i]
			a.group, a.route, a.head, a.depend, a.v = g, w, false, false, 0
			a.steps, a.locks = a.steps[:0], a.locks[:0]
		}
		a := &acts[i]
		a.steps = append(a.steps, *s)
		a.head = a.head || s.head
		a.depend = a.depend || s.dependent
		for _, r := range s.reads() {
			switch k, ok := r.row.lockKey(); {
			case r.scan:
				a.locks.add(kWh(r.row.w), r.mode)
			case ok:
				a.locks.add(kWh(r.row.w), lock.IX)
				a.locks.add(k, r.mode)
			}
		}
	}
	p.acts = acts
	return acts
}

// runDora runs write plan p through the partition executor and releases
// it: one action per group of steps, all rendezvousing at commit. The
// action that runs the head publishes the order id; the others park
// until it arrives. It returns the value in force after the first action,
// the plan's own when the plan is one action.
func (db *DB) runDora(ctx context.Context, p *plan) (uint32, error) {
	defer p.release()
	x := db.Engine.Dora()
	if x == nil {
		return 0, ErrDoraDisabled
	}
	p.db = db
	acts := p.actions(x.Route)
	p.txn = x.NewTxn(ctx)
	for i := range acts {
		a := &acts[i]
		p.txn.Add(dora.ActionSpec{
			RouteKey:  a.route,
			Locks:     a.locks,
			Produces:  a.head && len(acts) > 1,
			Dependent: a.depend && !a.head,
			Run:       p.run(i),
		})
	}
	err := x.Submit(p.txn)
	p.txn = nil
	return acts[0].v, err
}

// run returns the body of p's action i: it runs the action's steps on the
// partition's sub-transaction, and the head's publishes the order id.
// Bodies are made once per pooled plan and read the action from p.acts
// when they run.
func (p *plan) run(i int) dora.RunFunc {
	for j := len(p.runs); j <= i; j++ {
		p.runs = append(p.runs, func(ctx context.Context, sub *tx.Tx, input uint64) (err error) {
			a := &p.acts[j]
			a.w.begin(p.db, ctx, sub)
			a.v, err = p.apply(a.steps, uint32(input), &a.w)
			if a.head {
				p.txn.PublishInput(uint64(a.v))
			}
			return err
		})
	}
	return p.runs[i]
}

// DoraPayment runs one Payment through the partition executor: one
// action for a customer of the home partition, else a home and a
// customer action that rendezvous at commit.
func (db *DB) DoraPayment(ctx context.Context, in PaymentInput) error {
	_, err := db.runDora(ctx, newPlan().payment(in))
	return err
}

// DoraNewOrder runs one New Order through the partition executor: the
// home action allocates the order id and runs the lines supplied from its
// partition; each other partition's lines are an action that parks until
// the id arrives. The spec's 1% rollback surfaces as ErrUserAbort with
// every partition rolled back.
func (db *DB) DoraNewOrder(ctx context.Context, in NewOrderInput) error {
	_, err := db.runDora(ctx, newPlan().newOrder(in))
	return err
}

// doraSolo runs read-only plan run as a transaction's one action, on w's
// partition.
func (db *DB) doraSolo(ctx context.Context, w uint32, locks []dora.LockReq, run func(*txWriter) error) error {
	x := db.Engine.Dora()
	if x == nil {
		return ErrDoraDisabled
	}
	p := newPlan()
	defer p.release()
	t := x.NewTxn(ctx)
	t.Add(dora.ActionSpec{
		RouteKey: w,
		Locks:    locks,
		ReadOnly: true,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			p.w.begin(db, ctx, sub)
			return run(&p.w)
		},
	})
	return x.Submit(t)
}

// DoraDelivery runs one Delivery through the partition executor: one
// action, which holds its warehouse's X anchor because its steps scan.
func (db *DB) DoraDelivery(ctx context.Context, in DeliveryInput) (int, error) {
	delivered, err := db.runDora(ctx, newPlan().delivery(in, db.Scale.Districts))
	return deliveredOrNone(int(delivered), err)
}

// DoraOrderStatus runs one Order-Status (read-only) through the
// partition executor: district S covers the order scan against New
// Order's district X, customer S against Payment's customer X.
func (db *DB) DoraOrderStatus(ctx context.Context, in OrderStatusInput) (res OrderStatusResult, err error) {
	locks := []dora.LockReq{
		{Key: kWh(in.WID), Mode: lock.IS},
		{Key: kDist(in.WID, in.DID), Mode: lock.S},
		{Key: kCust(in.WID, in.DID, in.CID), Mode: lock.S},
	}
	err = db.doraSolo(ctx, in.WID, locks, func(w *txWriter) error {
		if err := in.run(w, &res); err != nil {
			return err
		}
		res.own() // before the action's sub-transaction ends
		return nil
	})
	return res, err
}

// DoraStockLevel runs one Stock-Level (read-only) through the partition
// executor. Its stock read set is unknown until the order-line scan, so
// it takes the coarse warehouse S anchor against writers' IX.
func (db *DB) DoraStockLevel(ctx context.Context, in StockLevelInput) (low int, err error) {
	locks := []dora.LockReq{{Key: kWh(in.WID), Mode: lock.S}}
	err = db.doraSolo(ctx, in.WID, locks, func(w *txWriter) error { return in.run(w, &low) })
	return low, err
}
