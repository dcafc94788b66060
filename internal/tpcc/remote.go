package tpcc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/wire"
)

// Catalog names under which a served TPC-C database publishes its
// stores and scale axes for remote drivers to resolve; the programs'
// names are in their table (plan.go).
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
// database: the nine stores, the scale axes remote generators need and
// the five programs a remote driver calls.
func (db *DB) Catalog() []CatalogEntry {
	cat := []CatalogEntry{
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
	for p, prog := range programs {
		cat = append(cat, CatalogEntry{prog.name, db.programs[p], wire.KindProgram})
	}
	return cat
}

// CatalogEntry is one name→id binding for a server catalog.
type CatalogEntry struct {
	Name string
	ID   uint32
	Kind byte
}

// RemoteStats counts a remote driver's retry traffic.
type RemoteStats struct {
	Sheds     atomic.Uint64 // ErrBusy responses (admission control)
	Deadlocks atomic.Uint64 // deadlock-victim retries
	Timeouts  atomic.Uint64 // lock-timeout retries
}

// Remote drives TPC-C transactions against a shored server over one
// client connection. Each transaction is one frame: a call of the program
// the server registered for it (plan.go), in a managed Update batch, or a
// View batch for the two read-only ones. The server retries deadlock and
// timeout victims itself; what still comes back retryable, and every shed
// request, is retried client-side with capped exponential backoff. Not
// safe for concurrent use — one Remote per goroutine, like the Client it
// wraps.
type Remote struct {
	C     *client.Client
	Scale Scale
	Stats *RemoteStats

	programs [nPrograms]uint32
	addr     string // where to redial a poisoned connection; "" for none
}

// OpenRemote resolves the TPC-C catalog over c. The returned Remote
// shares *stats if non-nil (so many connections can aggregate).
func OpenRemote(ctx context.Context, c *client.Client, stats *RemoteStats) (*Remote, error) {
	if stats == nil {
		stats = &RemoteStats{}
	}
	r := &Remote{C: c, Stats: stats}
	var w, d, cu, it uint32
	names := []string{CatScaleWarehouses, CatScaleDistricts, CatScaleCustomers, CatScaleItems}
	dsts := []*uint32{&w, &d, &cu, &it}
	for p, prog := range programs {
		names, dsts = append(names, prog.name), append(dsts, &r.programs[p])
	}
	for i, name := range names {
		id, _, err := c.Resolve(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("tpcc: resolve %s: %w", name, err)
		}
		*dsts[i] = id
	}
	r.Scale = Scale{Warehouses: int(w), Districts: int(d), Customers: int(cu), Items: int(it), StockPerItem: true}
	return r, nil
}

// Redial returns an opener of executors for Drive, each on a connection
// of its own to the TPC-C server at addr, dialed at once. A transport
// error poisons a connection (its stream is desynchronized), so the next
// transaction redials, as any real database client would.
func Redial(addr string, stats *RemoteStats) func() Executor {
	return func() Executor {
		r := &Remote{Stats: cmp.Or(stats, &RemoteStats{}), addr: addr}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = r.redial(ctx) // a failed dial is retried by the first transaction
		return Executor{r.Payment, r.NewOrder, r.OrderStatus, r.StockLevel, r.Delivery, func() {
			if r.C != nil {
				r.C.Close()
			}
		}}
	}
}

// redial connects r to its server again, every 50 ms until ctx ends, if
// it has no open connection.
func (r *Remote) redial(ctx context.Context) error {
	for r.C == nil || r.C.Closed() {
		if c, err := client.Dial(r.addr, client.Options{}); err == nil {
			if dialed, err := OpenRemote(ctx, c, r.Stats); err == nil {
				r.C, r.Scale, r.programs = c, dialed.Scale, dialed.programs
				return nil
			}
			c.Close()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil
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

// call runs program p with args in one batch, a View if p only reads and
// an Update otherwise, with retry, and returns the program's answer.
func (r *Remote) call(ctx context.Context, p program, args []byte) ([]byte, error) {
	if r.addr != "" {
		if err := r.redial(ctx); err != nil {
			return nil, err
		}
	}
	run := r.C.Update
	if programs[p].readOnly {
		run = r.C.View
	}
	var called *client.Called
	err := r.retryRemote(ctx, func() error {
		return run(ctx, func(b *client.Batch) { called = b.Call(r.programs[p], args) })
	})
	if err != nil {
		return nil, err
	}
	return called.Result, nil
}

// Payment runs one remote Payment transaction.
func (r *Remote) Payment(ctx context.Context, in PaymentInput) error {
	_, err := r.call(ctx, progPayment, in.appendArgs(nil))
	return err
}

// NewOrder runs one remote New Order transaction. Its rollback, which
// the server runs in the same frame, comes back as ErrUserAbort.
func (r *Remote) NewOrder(ctx context.Context, in NewOrderInput) error {
	_, err := r.call(ctx, progNewOrder, in.appendArgs(nil))
	if errors.Is(err, client.ErrRolledBack) {
		return ErrUserAbort
	}
	return err
}

// OrderStatus runs one remote Order-Status query in one View batch
// (lock-free as-of reads under snapshot reads).
func (r *Remote) OrderStatus(ctx context.Context, in OrderStatusInput) (OrderStatusResult, error) {
	b, err := r.call(ctx, progOrderStatus, in.appendArgs(nil))
	if err != nil {
		return OrderStatusResult{}, err
	}
	return decodeOrderStatusResult(b)
}

// StockLevel runs one remote Stock-Level query in one View batch.
func (r *Remote) StockLevel(ctx context.Context, in StockLevelInput) (int, error) {
	return r.count(ctx, progStockLevel, in.appendArgs(nil))
}

// Delivery runs one remote Delivery transaction and answers how many
// orders it delivered.
func (r *Remote) Delivery(ctx context.Context, in DeliveryInput) (int, error) {
	return deliveredOrNone(r.count(ctx, progDelivery, in.appendArgs(nil)))
}

// count calls program p, whose answer is a count.
func (r *Remote) count(ctx context.Context, p program, args []byte) (int, error) {
	b, err := r.call(ctx, p, args)
	if err != nil {
		return 0, err
	}
	d := dec{b: b}
	n := d.u32()
	return int(n), d.argsErr(true)
}

// The argument codecs: what a remote caller sends and a program decodes.
// A decoder takes exactly one encoding: it refuses a short blob, bytes
// left over, and values no generator draws, so that whatever it accepts
// re-encodes to the same bytes.

// ErrBadArgs reports program arguments (or a result) that do not decode.
var ErrBadArgs = errors.New("tpcc: malformed program arguments")

// maxLines is the most lines a New Order has (the spec draws 5–15).
const maxLines = 15

func (in PaymentInput) appendArgs(b []byte) []byte {
	e := enc{b: b}
	e.u32(in.WID)
	e.u8(in.DID)
	e.u32(in.CWID)
	e.u8(in.CDID)
	e.u32(in.CID)
	e.f64(in.Amount)
	return e.b
}

func decodePaymentArgs(b []byte) (PaymentInput, error) {
	d := dec{b: b}
	in := PaymentInput{WID: d.u32(), DID: d.u8(), CWID: d.u32(), CDID: d.u8(), CID: d.u32(), Amount: d.f64()}
	return in, d.argsErr(!math.IsNaN(in.Amount) && !math.IsInf(in.Amount, 0))
}

func (in NewOrderInput) appendArgs(b []byte) []byte {
	e := enc{b: b}
	e.u32(in.WID)
	e.u8(in.DID)
	e.u32(in.CID)
	e.bool(in.Rollback)
	e.u8(uint8(len(in.Lines)))
	for _, l := range in.Lines {
		e.u32(l.ItemID)
		e.u32(l.SupplyWID)
		e.u8(l.Quantity)
	}
	return e.b
}

func decodeNewOrderArgs(b []byte) (NewOrderInput, error) {
	d := dec{b: b}
	in := NewOrderInput{WID: d.u32(), DID: d.u8(), CID: d.u32()}
	rollback, n := d.u8(), int(d.u8())
	if rollback > 1 || n == 0 || n > maxLines {
		return in, d.argsErr(false)
	}
	in.Rollback = rollback == 1
	in.Lines = make([]NewOrderLine, n)
	for i := range in.Lines {
		in.Lines[i] = NewOrderLine{ItemID: d.u32(), SupplyWID: d.u32(), Quantity: d.u8()}
	}
	return in, d.argsErr(true)
}

func (in OrderStatusInput) appendArgs(b []byte) []byte {
	e := enc{b: b}
	e.u32(in.WID)
	e.u8(in.DID)
	e.u32(in.CID)
	return e.b
}

func decodeOrderStatusArgs(b []byte) (OrderStatusInput, error) {
	d := dec{b: b}
	in := OrderStatusInput{WID: d.u32(), DID: d.u8(), CID: d.u32()}
	return in, d.argsErr(true)
}

func (in StockLevelInput) appendArgs(b []byte) []byte {
	e := enc{b: b}
	e.u32(in.WID)
	e.u8(in.DID)
	e.u32(uint32(in.Threshold))
	return e.b
}

func decodeStockLevelArgs(b []byte) (StockLevelInput, error) {
	d := dec{b: b}
	in := StockLevelInput{WID: d.u32(), DID: d.u8(), Threshold: int32(d.u32())}
	return in, d.argsErr(true)
}

func (in DeliveryInput) appendArgs(b []byte) []byte {
	e := enc{b: b}
	e.u32(in.WID)
	e.u8(in.CarrierID)
	return e.b
}

func decodeDeliveryArgs(b []byte) (DeliveryInput, error) {
	d := dec{b: b}
	in := DeliveryInput{WID: d.u32(), CarrierID: d.u8()}
	return in, d.argsErr(in.CarrierID >= 1 && in.CarrierID <= 10)
}

// appendTo encodes an Order-Status answer: the customer row, then, if
// the customer has an order, the order row and its line rows.
func (res *OrderStatusResult) appendTo(b []byte) []byte {
	e := enc{b: b}
	e.bytes(res.Customer.encode())
	e.bool(res.HasOrder)
	if res.HasOrder {
		e.bytes(res.Order.encode())
		e.u8(uint8(len(res.Lines)))
		for i := range res.Lines {
			e.bytes(res.Lines[i].encode())
		}
	}
	return e.b
}

func decodeOrderStatusResult(b []byte) (OrderStatusResult, error) {
	d := dec{b: b}
	var res OrderStatusResult
	var err error
	res.Customer, err = decodeCustomer(d.bytes())
	res.HasOrder = d.u8() == 1
	if err == nil && res.HasOrder {
		res.Order, err = decodeOrder(d.bytes())
		for n := d.u8(); err == nil && n > 0; n-- {
			var ol OrderLine
			ol, err = decodeOrderLine(d.bytes())
			res.Lines = append(res.Lines, ol)
		}
	}
	return res, cmp.Or(err, d.argsErr(true))
}
