package tpcc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/lock"
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
// client connection: the wire executor of the plans. Deadlock victims,
// lock timeouts and shed requests are retried client-side with capped
// exponential backoff. Not safe for concurrent use — one Remote per
// goroutine, like the Client it wraps.
type Remote struct {
	C     *client.Client
	Scale Scale
	Stats *RemoteStats

	stores [nTables]uint32 // by table
}

// OpenRemote resolves the TPC-C catalog over c. The returned Remote
// shares *stats if non-nil (so many connections can aggregate).
func OpenRemote(ctx context.Context, c *client.Client, stats *RemoteStats) (*Remote, error) {
	if stats == nil {
		stats = &RemoteStats{}
	}
	r := &Remote{C: c, Stats: stats}
	var w, d, cu, it uint32
	for _, e := range []struct {
		name string
		dst  *uint32
	}{
		{CatWarehouse, &r.stores[tWarehouse]}, {CatDistrict, &r.stores[tDistrict]},
		{CatCustomer, &r.stores[tCustomer]}, {CatOrders, &r.stores[tOrders]},
		{CatNewOrder, &r.stores[tNewOrder]}, {CatOrderLine, &r.stores[tOrderLine]},
		{CatItem, &r.stores[tItem]}, {CatStock, &r.stores[tStock]}, {CatHistory, &r.stores[tHistory]},
		{CatScaleWarehouses, &w}, {CatScaleDistricts, &d},
		{CatScaleCustomers, &cu}, {CatScaleItems, &it},
	} {
		id, _, err := c.Resolve(ctx, e.name)
		if err != nil {
			return nil, fmt.Errorf("tpcc: resolve %s: %w", e.name, err)
		}
		*e.dst = id
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

// Payment runs one remote Payment transaction.
func (r *Remote) Payment(ctx context.Context, in PaymentInput) error {
	return r.retryRemote(ctx, func() error { return r.run(ctx, in.plan()) })
}

// NewOrder runs one remote New Order transaction.
func (r *Remote) NewOrder(ctx context.Context, in NewOrderInput) error {
	err := r.retryRemote(ctx, func() error { return r.run(ctx, in.plan()) })
	if errors.Is(err, ErrUserAbort) {
		r.Stats.UserAborts.Add(1)
	}
	return err
}

// OrderStatus runs one remote Order-Status query in two View batches
// (wire.BatchView: lock-free as-of reads under snapshot reads). It reads
// across two snapshots; each is consistent, which a status screen needs.
func (r *Remote) OrderStatus(ctx context.Context, in OrderStatusInput) (res OrderStatusResult, err error) {
	err = r.retryRemote(ctx, func() error { return in.run(r.fetcher(ctx), &res) })
	return res, err
}

// StockLevel runs one remote Stock-Level query in three View batches,
// the heaviest remote scanner of the mix.
func (r *Remote) StockLevel(ctx context.Context, in StockLevelInput) (low int, err error) {
	err = r.retryRemote(ctx, func() error { return in.run(r.fetcher(ctx), &low) })
	return low, err
}

// run is the wire executor of a write plan: every step's reads ride on
// the begin round trip, every write on the commit round trip.
func (r *Remote) run(ctx context.Context, p []step) error {
	var reads []read
	for _, s := range p {
		reads = append(reads, s.reads...)
	}
	b := client.NewBatch()
	results := r.record(b, reads)
	tx, err := r.C.BeginBatch(ctx, b)
	if err != nil {
		return err
	}
	got, err := results()
	w := batchWriter{stores: &r.stores, b: client.NewBatch(), wrote: map[row][]byte{}}
	if err == nil {
		_, err = apply(p, 0, func(reads ...read) ([]found, error) {
			f := got[:len(reads)]
			got = got[len(reads):]
			for i, rd := range reads {
				if v, ok := w.wrote[rd.row]; ok {
					f[i].value = v // New Order's second line of one stock row
				}
			}
			return f, nil
		}, w)
	}
	if err == nil {
		if err = tx.RunCommit(ctx, w.b); client.IsAborted(err) {
			return err
		}
	}
	if err != nil {
		_ = tx.Rollback(ctx)
	}
	return err
}

// fetcher reads each round in one View batch (an empty one in none).
func (r *Remote) fetcher(ctx context.Context) fetcher {
	return func(reads ...read) ([]found, error) {
		if len(reads) == 0 {
			return nil, nil
		}
		var results func() ([]found, error)
		if err := r.C.View(ctx, func(b *client.Batch) { results = r.record(b, reads) }); err != nil {
			return nil, err
		}
		return results()
	}
}

// record adds reads to b (a get, for update by the read's mode, or a
// scan) and returns what each found, to be called once b has run.
func (r *Remote) record(b *client.Batch, reads []read) func() ([]found, error) {
	gets, scans := make([]*client.Lookup, len(reads)), make([]*client.Scanned, len(reads))
	for i, rd := range reads {
		store, key := r.stores[rd.row.t], rd.row.key()
		switch {
		case rd.scan:
			scans[i] = b.IndexScan(store, key, rd.row.end(), 0)
		case rd.mode == lock.X:
			gets[i] = b.IndexGetForUpdate(store, key)
		default:
			gets[i] = b.IndexGet(store, key)
		}
	}
	return func() ([]found, error) {
		got := make([]found, len(reads))
		for i, rd := range reads {
			switch {
			case rd.scan:
				for _, kv := range scans[i].KVs {
					got[i].scan = append(got[i].scan, kv.Value)
				}
			case gets[i].Found:
				got[i].value = gets[i].Value
			default:
				if err := rd.row.missing(); err != nil {
					return nil, err
				}
			}
		}
		return got, nil
	}
}

// batchWriter adds a step's writes to the commit batch and keeps each
// update, which a later step reading the row must see.
type batchWriter struct {
	stores *[nTables]uint32
	b      *client.Batch
	wrote  map[row][]byte
}

func (w batchWriter) err() error { return nil }

func (w batchWriter) update(r row, v []byte) {
	w.wrote[r] = v
	w.b.IndexUpdate(w.stores[r.t], r.key(), v)
}

func (w batchWriter) insert(r row, v []byte) {
	if r.t == tHistory {
		w.b.HeapInsert(w.stores[r.t], v)
	} else {
		w.b.IndexInsert(w.stores[r.t], r.key(), v)
	}
}
