package tpcc

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/tx"
)

// table names one TPC-C table.
type table uint8

const (
	tWarehouse table = iota
	tDistrict
	tCustomer
	tOrders
	tNewOrder
	tOrderLine
	tItem
	tStock
	tHistory // the heap; rows are only ever appended to it
	nTables
)

// row names one row: its table, and ids (id: customer, order or item).
type row struct {
	t  table
	w  uint32
	d  uint8
	id uint32
	n  uint8
}

func wRow(w uint32) row                    { return row{t: tWarehouse, w: w} }
func dRow(w uint32, d uint8) row           { return row{t: tDistrict, w: w, d: d} }
func cRow(w uint32, d uint8, c uint32) row { return row{t: tCustomer, w: w, d: d, id: c} }
func oRow(w uint32, d uint8, o uint32) row { return row{t: tOrders, w: w, d: d, id: o} }
func iRow(i uint32) row                    { return row{t: tItem, id: i} }
func sRow(w, i uint32) row                 { return row{t: tStock, w: w, id: i} }

// key is the row's B-tree key: its ids big-endian in primary-key order,
// so that B-tree order is key order. An item's key is its id alone.
func (r row) key() []byte {
	b := make([]byte, 0, 10)
	if r.t == tItem {
		return binary.BigEndian.AppendUint32(b, r.id)
	}
	b = binary.BigEndian.AppendUint32(b, r.w)
	switch r.t {
	case tWarehouse:
		return b
	case tStock:
		return binary.BigEndian.AppendUint32(b, r.id)
	}
	b = append(b, r.d)
	if r.t == tDistrict {
		return b
	}
	b = binary.BigEndian.AppendUint32(b, r.id)
	if r.t == tOrderLine {
		b = append(b, r.n)
	}
	return b
}

// end is where a scan from r stops: the next district's first key.
func (r row) end() []byte { return oRow(r.w, r.d+1, 0).key() }

// missing is what a read reports when r is absent. An order line's absence
// is an answer, and an item's New Order's rollback (an unused id, per spec).
func (r row) missing() error {
	switch r.t {
	case tWarehouse:
		return fmt.Errorf("tpcc: warehouse %d missing", r.w)
	case tDistrict:
		return fmt.Errorf("tpcc: district %d/%d missing", r.w, r.d)
	case tCustomer:
		return fmt.Errorf("tpcc: customer %d/%d/%d missing", r.w, r.d, r.id)
	case tOrders:
		return fmt.Errorf("tpcc: order %d/%d/%d missing", r.w, r.d, r.id)
	case tStock:
		return fmt.Errorf("tpcc: stock %d/%d missing", r.w, r.id)
	case tItem:
		return ErrUserAbort
	}
	return nil
}

// read is one row a plan reads: X when the plan writes the row back (S
// and an upgrade at the write deadlock two transactions doing the same),
// S otherwise. A scan reads from its row's key to its district's end, a
// first scan only its first row there; DORA takes a scan's mode on its
// warehouse's anchor (actions), since it cannot name the rows scanned.
type read struct {
	row         row
	mode        lock.Mode
	scan, first bool
}

// found is what one read returned: a get's or a first scan's value (nil
// for an absent row whose absence is an answer, or an empty range), or a
// scan's values in key order.
type found struct {
	value []byte
	scan  [][]byte
}

// step is one unit of a write plan: the rows it reads, every key known
// from the input alone, and apply, which turns what they hold into writes
// and follow-up reads through w. apply takes the value in force and
// returns it: New Order's order id, Delivery's count of orders delivered.
type step struct {
	reads           []read
	head, dependent bool
	apply           func(got []found, v uint32, w *txWriter) (uint32, error)
}

// home is the warehouse s's rows live in (ITEM's live in none).
func (s *step) home() uint32 {
	for _, r := range s.reads {
		if r.row.w != 0 {
			return r.row.w
		}
	}
	return 0
}

// apply runs a write plan's steps in order, each over what w reads for
// it and writing through w, and returns the value in force at the end.
func apply(p []step, v uint32, w *txWriter) (uint32, error) {
	for _, s := range p {
		got, err := w.fetch(s.reads...)
		if err == nil {
			v, err = s.apply(got, v, w)
		}
		if err = cmp.Or(err, w.first); err != nil {
			return v, err
		}
	}
	return v, nil
}

// The plans have two executors. The embedded one is core calls on one
// tx.Tx, each step's reads and then its writes: the …Ctx entry points run
// it, and so does the server, for a remote caller, when it runs a plan as
// a registered program (programs below). DORA is the other (dora.go): it
// groups the steps into per-partition actions, each of which runs the
// embedded executor on its sub-transaction.

// index is the B-tree that holds t's rows.
func (db *DB) index(t table) *core.Index { return *db.indexes()[t] }

func (db *DB) indexes() [tHistory]**core.Index {
	return [...]**core.Index{
		&db.Warehouse, &db.District, &db.Customer, &db.Orders,
		&db.NewOrderTab, &db.OrderLine, &db.Item, &db.Stock,
	}
}

// runCtx runs write plan p as one managed transaction: deadlock and
// timeout victims are retried with capped exponential backoff, lock
// waits observe ctx, and ErrUserAbort is not retried. It returns the
// value in force at the end of the attempt that committed.
func (db *DB) runCtx(ctx context.Context, p []step) (v uint32, err error) {
	err = db.Engine.RunCtx(ctx, retryPolicy, func(t *tx.Tx) (err error) {
		v, err = apply(p, 0, &txWriter{db: db, ctx: ctx, t: t})
		return err
	}, nil)
	return v, err
}

// txWriter runs a plan's reads and writes in t as they come. first is the
// first write that failed; the writes after it are dropped.
type txWriter struct {
	db    *DB
	ctx   context.Context
	t     *tx.Tx
	first error
}

// fetch reads one round and returns what each read found; an absent row
// is its missing() error. A get takes an X key lock when its mode is X
// (SELECT FOR UPDATE), S otherwise. A read-only plan is a function over
// w, one fetch per round: each round's keys come from the last's values.
func (w *txWriter) fetch(reads ...read) ([]found, error) {
	e, got := w.db.Engine, make([]found, len(reads))
	for i, r := range reads {
		var err error
		ix, key := w.db.index(r.row.t), r.row.key()
		if r.scan {
			err = e.IndexScanCtx(w.ctx, w.t, ix, key, r.row.end(), func(_, v []byte) bool {
				if r.first {
					got[i].value = v
					return false
				}
				got[i].scan = append(got[i].scan, v)
				return true
			})
		} else {
			lookup, ok := e.IndexLookupCtx, false
			if r.mode == lock.X {
				lookup = e.IndexLookupForUpdateCtx
			}
			if got[i].value, ok, err = lookup(w.ctx, w.t, ix, key); err == nil && !ok {
				err = r.row.missing()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

func (w *txWriter) update(r row, v []byte) {
	if w.first == nil {
		w.first = w.db.Engine.IndexUpdateCtx(w.ctx, w.t, w.db.index(r.t), r.key(), v)
	}
}

func (w *txWriter) delete(r row) {
	if w.first == nil {
		_, w.first = w.db.Engine.IndexDeleteCtx(w.ctx, w.t, w.db.index(r.t), r.key())
	}
}

func (w *txWriter) insert(r row, v []byte) {
	switch {
	case w.first != nil:
	case r.t == tHistory:
		_, w.first = w.db.Engine.HeapInsertCtx(w.ctx, w.t, w.db.History, v)
	default:
		w.first = w.db.Engine.IndexInsertCtx(w.ctx, w.t, w.db.index(r.t), r.key(), v)
	}
}

// program names one of the transactions a server runs for a remote caller.
type program uint8

const (
	progPayment program = iota
	progNewOrder
	progOrderStatus
	progStockLevel
	progDelivery
	nPrograms
)

// programs is the table of the five transactions as programs, which
// registerPrograms, Catalog and OpenRemote read: each one's catalog name,
// whether it only reads (a View batch, not an Update), and run, which
// decodes its input from a call's arguments (remote.go), runs it through
// the embedded executor on the call's transaction and appends its answer.
var programs = [nPrograms]struct {
	name     string
	readOnly bool
	run      func(w *txWriter, args, out []byte) ([]byte, error)
}{
	progPayment: {"tpcc.program.payment", false, func(w *txWriter, args, out []byte) ([]byte, error) {
		in, err := decodePaymentArgs(args)
		if err == nil {
			_, err = apply(in.plan(), 0, w)
		}
		return out, err
	}},
	progNewOrder: {"tpcc.program.neworder", false, func(w *txWriter, args, out []byte) ([]byte, error) {
		in, err := decodeNewOrderArgs(args)
		if err == nil {
			_, err = apply(in.plan(), 0, w)
		}
		return out, err
	}},
	progOrderStatus: {"tpcc.program.orderstatus", true, func(w *txWriter, args, out []byte) ([]byte, error) {
		in, err := decodeOrderStatusArgs(args)
		var res OrderStatusResult
		if err == nil {
			err = in.run(w, &res)
		}
		return res.appendTo(out), err
	}},
	progStockLevel: {"tpcc.program.stocklevel", true, func(w *txWriter, args, out []byte) ([]byte, error) {
		in, err := decodeStockLevelArgs(args)
		var low int
		if err == nil {
			err = in.run(w, &low)
		}
		return binary.BigEndian.AppendUint32(out, uint32(low)), err
	}},
	progDelivery: {"tpcc.program.delivery", false, func(w *txWriter, args, out []byte) ([]byte, error) {
		in, err := decodeDeliveryArgs(args)
		var delivered uint32
		if err == nil {
			delivered, err = apply(in.plan(w.db.Scale.Districts), 0, w)
		}
		return binary.BigEndian.AppendUint32(out, delivered), err
	}},
}

// registerPrograms registers the programs on the engine.
func (db *DB) registerPrograms() {
	for p, prog := range programs {
		db.programs[p] = db.Engine.RegisterProgram(core.Program{ReadOnly: prog.readOnly, Run: func(ctx context.Context, t *tx.Tx, args, out []byte) ([]byte, error) {
			return prog.run(&txWriter{db: db, ctx: ctx, t: t}, args, out)
		}})
	}
}
