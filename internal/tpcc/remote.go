package tpcc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/wire"
)

// Catalog names under which a served TPC-C database publishes its
// stores (and scale axes) for remote drivers to resolve.
const (
	CatWarehouse = "tpcc.warehouse"
	CatDistrict  = "tpcc.district"
	CatCustomer  = "tpcc.customer"
	CatOrders    = "tpcc.orders"
	CatNewOrder  = "tpcc.neworder"
	CatOrderLine = "tpcc.orderline"
	CatItem      = "tpcc.item"
	CatStock     = "tpcc.stock"
	CatHistory   = "tpcc.history"

	CatScaleWarehouses = "tpcc.scale.warehouses"
	CatScaleDistricts  = "tpcc.scale.districts"
	CatScaleCustomers  = "tpcc.scale.customers"
	CatScaleItems      = "tpcc.scale.items"
)

// Catalog enumerates the entries a server should register for this
// database: the nine stores plus the scale axes remote generators need.
func (db *DB) Catalog() []CatalogEntry {
	return []CatalogEntry{
		{CatWarehouse, db.Warehouse.Store(), wire.KindIndex},
		{CatDistrict, db.District.Store(), wire.KindIndex},
		{CatCustomer, db.Customer.Store(), wire.KindIndex},
		{CatOrders, db.Orders.Store(), wire.KindIndex},
		{CatNewOrder, db.NewOrderTab.Store(), wire.KindIndex},
		{CatOrderLine, db.OrderLine.Store(), wire.KindIndex},
		{CatItem, db.Item.Store(), wire.KindIndex},
		{CatStock, db.Stock.Store(), wire.KindIndex},
		{CatHistory, db.History, wire.KindHeap},
		{CatScaleWarehouses, uint32(db.Scale.Warehouses), wire.KindMeta},
		{CatScaleDistricts, uint32(db.Scale.Districts), wire.KindMeta},
		{CatScaleCustomers, uint32(db.Scale.Customers), wire.KindMeta},
		{CatScaleItems, uint32(db.Scale.Items), wire.KindMeta},
	}
}

// CatalogEntry is one name→id binding for a server catalog.
type CatalogEntry struct {
	Name string
	ID   uint32
	Kind byte
}

// RemoteStats counts a remote driver's retry traffic.
type RemoteStats struct {
	Sheds      atomic.Uint64 // ErrBusy responses (admission control)
	Deadlocks  atomic.Uint64 // deadlock-victim retries
	Timeouts   atomic.Uint64 // lock-timeout retries
	UserAborts atomic.Uint64 // the spec's 1% intentional rollbacks
}

// Remote drives TPC-C transactions against a shored server over one
// client connection, mirroring the local Payment and New Order bodies.
// Each transaction is two round trips: a BeginBatch carrying every read
// (all keys are known up front), then a RunCommit carrying every write.
// Deadlock victims, lock timeouts and shed requests are retried
// client-side with capped exponential backoff. Not safe for concurrent
// use — one Remote per goroutine, like the Client it wraps.
type Remote struct {
	C     *client.Client
	Scale Scale
	Stats *RemoteStats

	warehouse, district, customer uint32
	orders, newOrder, orderLine   uint32
	item, stock, history          uint32
}

// OpenRemote resolves the TPC-C catalog over c. The returned Remote
// shares *stats if non-nil (so many connections can aggregate).
func OpenRemote(ctx context.Context, c *client.Client, stats *RemoteStats) (*Remote, error) {
	if stats == nil {
		stats = &RemoteStats{}
	}
	r := &Remote{C: c, Stats: stats}
	resolve := func(name string, dst *uint32) error {
		id, _, err := c.Resolve(ctx, name)
		if err != nil {
			return fmt.Errorf("tpcc: resolve %s: %w", name, err)
		}
		*dst = id
		return nil
	}
	var w, d, cu, it uint32
	for _, e := range []struct {
		name string
		dst  *uint32
	}{
		{CatWarehouse, &r.warehouse}, {CatDistrict, &r.district},
		{CatCustomer, &r.customer}, {CatOrders, &r.orders},
		{CatNewOrder, &r.newOrder}, {CatOrderLine, &r.orderLine},
		{CatItem, &r.item}, {CatStock, &r.stock}, {CatHistory, &r.history},
		{CatScaleWarehouses, &w}, {CatScaleDistricts, &d},
		{CatScaleCustomers, &cu}, {CatScaleItems, &it},
	} {
		if err := resolve(e.name, e.dst); err != nil {
			return nil, err
		}
	}
	r.Scale = Scale{Warehouses: int(w), Districts: int(d), Customers: int(cu), Items: int(it), StockPerItem: true}
	return r, nil
}

// remoteAttempts bounds client-side retries of one transaction.
const remoteAttempts = 12

// retryRemote runs fn with client-side retry on deadlock, timeout and
// shed responses. fn must be a whole unit of work (it re-runs from
// scratch).
func (r *Remote) retryRemote(ctx context.Context, fn func() error) error {
	backoff := 500 * time.Microsecond
	var err error
	for attempt := 0; attempt < remoteAttempts; attempt++ {
		err = fn()
		if err == nil || !client.Retryable(err) {
			return err
		}
		switch {
		case errors.Is(err, client.ErrBusy):
			r.Stats.Sheds.Add(1)
			// A shed request never started: the server refused it at the
			// admission boundary. Retrying is always safe and, unlike a
			// deadlock loop, converges as soon as a slot frees — so shed
			// retries don't consume the attempt budget (the surrounding
			// ctx bounds them).
			attempt--
		case errors.Is(err, client.ErrDeadlock):
			r.Stats.Deadlocks.Add(1)
		case errors.Is(err, client.ErrTimeout):
			r.Stats.Timeouts.Add(1)
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
		if backoff < 16*time.Millisecond {
			backoff *= 2
		}
	}
	return err
}

// rollbackUnlessAborted releases the transaction after a failure that
// may or may not have carried the server's aborted flag.
func rollbackUnlessAborted(ctx context.Context, tx *client.Tx, err error) {
	if !client.IsAborted(err) {
		_ = tx.Rollback(ctx)
	}
}

// Payment runs one remote Payment transaction (reads batched into the
// begin round trip, writes batched into the commit round trip).
func (r *Remote) Payment(ctx context.Context, in PaymentInput) error {
	return r.retryRemote(ctx, func() error { return r.paymentOnce(ctx, in) })
}

func (r *Remote) paymentOnce(ctx context.Context, in PaymentInput) error {
	// Every row read here is written back at commit, and the write is a
	// full client round trip away — take the X locks up front (SELECT
	// FOR UPDATE) or concurrent payments on the same warehouse deadlock
	// on the S→X upgrade almost every time.
	reads := client.NewBatch()
	gw := reads.IndexGetForUpdate(r.warehouse, wKey(in.WID))
	gd := reads.IndexGetForUpdate(r.district, dKey(in.WID, in.DID))
	gc := reads.IndexGetForUpdate(r.customer, cKey(in.CWID, in.CDID, in.CID))
	tx, err := r.C.BeginBatch(ctx, reads)
	if err != nil {
		return err
	}
	if !gw.Found || !gd.Found || !gc.Found {
		_ = tx.Rollback(ctx)
		return fmt.Errorf("tpcc: payment row missing (w=%v d=%v c=%v)", gw.Found, gd.Found, gc.Found)
	}
	wh, err := decodeWarehouse(gw.Value)
	if err != nil {
		_ = tx.Rollback(ctx)
		return err
	}
	dist, err := decodeDistrict(gd.Value)
	if err != nil {
		_ = tx.Rollback(ctx)
		return err
	}
	cust, err := decodeCustomer(gc.Value)
	if err != nil {
		_ = tx.Rollback(ctx)
		return err
	}

	wh.YTD += in.Amount
	dist.YTD += in.Amount
	cust.pay(in)
	h := newHistory(in, &wh, &dist)

	writes := client.NewBatch()
	writes.IndexUpdate(r.warehouse, wKey(in.WID), wh.encode())
	writes.IndexUpdate(r.district, dKey(in.WID, in.DID), dist.encode())
	writes.IndexUpdate(r.customer, cKey(in.CWID, in.CDID, in.CID), cust.encode())
	writes.HeapInsert(r.history, h.encode())
	if err := tx.RunCommit(ctx, writes); err != nil {
		rollbackUnlessAborted(ctx, tx, err)
		return err
	}
	return nil
}

// OrderStatus runs one remote Order-Status query through the server's
// View path (wire.BatchView): with the server opened under snapshot
// reads every batch below is a lock-free as-of read. The query spans
// two View batches — the second fetches the order lines found by the
// first — so it reads across two snapshots; each batch is individually
// consistent, which is what a status screen needs.
func (r *Remote) OrderStatus(ctx context.Context, in OrderStatusInput) (OrderStatusResult, error) {
	var res OrderStatusResult
	err := r.retryRemote(ctx, func() error {
		res = OrderStatusResult{}
		var gc *client.Lookup
		var orders *client.Scanned
		if err := r.C.View(ctx, func(b *client.Batch) {
			gc = b.IndexGet(r.customer, cKey(in.WID, in.DID, in.CID))
			orders = b.IndexScan(r.orders, oKey(in.WID, in.DID, 0), oKey(in.WID, in.DID+1, 0), 0)
		}); err != nil {
			return err
		}
		if !gc.Found {
			return fmt.Errorf("tpcc: customer %d/%d/%d missing", in.WID, in.DID, in.CID)
		}
		cust, err := decodeCustomer(gc.Value)
		if err != nil {
			return err
		}
		res.Customer = cust
		for _, kv := range orders.KVs {
			ord, err := decodeOrder(kv.Value)
			if err != nil {
				return err
			}
			if ord.CID == in.CID {
				res.Order = ord
				res.HasOrder = true
			}
		}
		if !res.HasOrder {
			return nil
		}
		var lines *client.Scanned
		if err := r.C.View(ctx, func(b *client.Batch) {
			lines = b.IndexScan(r.orderLine,
				olKey(in.WID, in.DID, res.Order.ID, 0),
				olKey(in.WID, in.DID, res.Order.ID+1, 0), 0)
		}); err != nil {
			return err
		}
		for _, kv := range lines.KVs {
			ol, err := decodeOrderLine(kv.Value)
			if err != nil {
				return err
			}
			res.Lines = append(res.Lines, ol)
		}
		return nil
	})
	return res, err
}

// StockLevel runs one remote Stock-Level query through the View path:
// district read, order-line range scan, then the distinct items' stock
// rows — three read-only batches, the heaviest remote scanner of the
// mix.
func (r *Remote) StockLevel(ctx context.Context, in StockLevelInput) (int, error) {
	low := 0
	err := r.retryRemote(ctx, func() error {
		low = 0
		var gd *client.Lookup
		if err := r.C.View(ctx, func(b *client.Batch) {
			gd = b.IndexGet(r.district, dKey(in.WID, in.DID))
		}); err != nil {
			return err
		}
		if !gd.Found {
			return fmt.Errorf("tpcc: district %d/%d missing", in.WID, in.DID)
		}
		dist, err := decodeDistrict(gd.Value)
		if err != nil {
			return err
		}
		firstOID := uint32(1)
		if dist.NextOID > 20 {
			firstOID = dist.NextOID - 20
		}
		var lines *client.Scanned
		if err := r.C.View(ctx, func(b *client.Batch) {
			lines = b.IndexScan(r.orderLine,
				olKey(in.WID, in.DID, firstOID, 0), oKey(in.WID, in.DID+1, 0), 0)
		}); err != nil {
			return err
		}
		items := map[uint32]struct{}{}
		for _, kv := range lines.KVs {
			ol, err := decodeOrderLine(kv.Value)
			if err != nil {
				return err
			}
			items[ol.ItemID] = struct{}{}
		}
		if len(items) == 0 {
			return nil
		}
		stocks := make(map[uint32]*client.Lookup, len(items))
		if err := r.C.View(ctx, func(b *client.Batch) {
			for item := range items {
				stocks[item] = b.IndexGet(r.stock, sKey(in.WID, item))
			}
		}); err != nil {
			return err
		}
		for _, g := range stocks {
			if !g.Found {
				continue
			}
			st, err := decodeStock(g.Value)
			if err != nil {
				return err
			}
			if st.Quantity < in.Threshold {
				low++
			}
		}
		return nil
	})
	return low, err
}

// NewOrder runs one remote New Order transaction.
func (r *Remote) NewOrder(ctx context.Context, in NewOrderInput) error {
	err := r.retryRemote(ctx, func() error { return r.newOrderOnce(ctx, in) })
	if errors.Is(err, ErrUserAbort) {
		r.Stats.UserAborts.Add(1)
	}
	return err
}

func (r *Remote) newOrderOnce(ctx context.Context, in NewOrderInput) error {
	// Every key is known up front, so the whole read set rides on the
	// begin round trip.
	reads := client.NewBatch()
	reads.IndexGet(r.warehouse, wKey(in.WID))
	reads.IndexGet(r.customer, cKey(in.WID, in.DID, in.CID))
	// District and stock rows are written back at commit: X up front
	// (see paymentOnce). Warehouse, customer and item stay S — New
	// Order only reads them.
	gd := reads.IndexGetForUpdate(r.district, dKey(in.WID, in.DID))
	items := make([]*client.Lookup, len(in.Lines))
	stocks := make([]*client.Lookup, len(in.Lines))
	for i, l := range in.Lines {
		items[i] = reads.IndexGet(r.item, iKey(l.ItemID))
		stocks[i] = reads.IndexGetForUpdate(r.stock, sKey(l.SupplyWID, l.ItemID))
	}
	tx, err := r.C.BeginBatch(ctx, reads)
	if err != nil {
		return err
	}
	if !gd.Found {
		_ = tx.Rollback(ctx)
		return fmt.Errorf("tpcc: district %d/%d missing", in.WID, in.DID)
	}
	dist, err := decodeDistrict(gd.Value)
	if err != nil {
		_ = tx.Rollback(ctx)
		return err
	}
	oid := dist.NextOID
	dist.NextOID++

	writes := client.NewBatch()
	writes.IndexUpdate(r.district, dKey(in.WID, in.DID), dist.encode())
	ord, no := newOrderRows(in, oid)
	writes.IndexInsert(r.orders, oKey(in.WID, in.DID, oid), ord.encode())
	writes.IndexInsert(r.newOrder, oKey(in.WID, in.DID, oid), no.encode())

	for i, l := range in.Lines {
		if in.Rollback && i == len(in.Lines)-1 {
			// The spec's intentional rollback (unused item id).
			_ = tx.Rollback(ctx)
			return ErrUserAbort
		}
		if !items[i].Found {
			_ = tx.Rollback(ctx)
			return ErrUserAbort
		}
		item, err := decodeItem(items[i].Value)
		if err != nil {
			_ = tx.Rollback(ctx)
			return err
		}
		if !stocks[i].Found {
			_ = tx.Rollback(ctx)
			return fmt.Errorf("tpcc: stock %d/%d missing", l.SupplyWID, l.ItemID)
		}
		st, err := decodeStock(stocks[i].Value)
		if err != nil {
			_ = tx.Rollback(ctx)
			return err
		}
		st.order(l, in.WID)
		writes.IndexUpdate(r.stock, sKey(l.SupplyWID, l.ItemID), st.encode())
		ol := newOrderLineRow(in, oid, i, &item, &st)
		writes.IndexInsert(r.orderLine, olKey(in.WID, in.DID, oid, ol.Number), ol.encode())
	}
	if err := tx.RunCommit(ctx, writes); err != nil {
		rollbackUnlessAborted(ctx, tx, err)
		return err
	}
	return nil
}
