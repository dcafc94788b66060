package tpcc

import (
	"fmt"
	"time"
)

// Warehouse is one WAREHOUSE row.
type Warehouse struct {
	ID     uint32
	Name   string
	Street string
	City   string
	State  string
	Zip    string
	Tax    float64
	YTD    float64
}

func (w *Warehouse) encode() []byte {
	e := newEnc(0)
	e.u32(w.ID)
	e.str(w.Name)
	e.str(w.Street)
	e.str(w.City)
	e.str(w.State)
	e.str(w.Zip)
	e.f64(w.Tax)
	e.f64(w.YTD)
	return e.b
}

func decodeWarehouse(b []byte) (Warehouse, error) {
	d := dec{b: b}
	w := Warehouse{
		ID: d.u32(), Name: d.str(), Street: d.str(), City: d.str(),
		State: d.str(), Zip: d.str(), Tax: d.f64(), YTD: d.f64(),
	}
	return w, d.err
}

// District is one DISTRICT row.
type District struct {
	WID     uint32
	ID      uint8
	Name    string
	Street  string
	City    string
	Tax     float64
	YTD     float64
	NextOID uint32
}

func (r *District) encode() []byte {
	e := newEnc(0)
	e.u32(r.WID)
	e.u8(r.ID)
	e.str(r.Name)
	e.str(r.Street)
	e.str(r.City)
	e.f64(r.Tax)
	e.f64(r.YTD)
	e.u32(r.NextOID)
	return e.b
}

func decodeDistrict(b []byte) (District, error) {
	d := dec{b: b}
	r := District{
		WID: d.u32(), ID: d.u8(), Name: d.str(), Street: d.str(),
		City: d.str(), Tax: d.f64(), YTD: d.f64(), NextOID: d.u32(),
	}
	return r, d.err
}

// Customer is one CUSTOMER row.
type Customer struct {
	WID        uint32
	DID        uint8
	ID         uint32
	First      string
	Middle     string
	Last       string
	Credit     string // "GC" or "BC"
	CreditLim  float64
	Discount   float64
	Balance    float64
	YTDPayment float64
	PaymentCnt uint32
	DeliveryCt uint32
	Data       string
}

func (c *Customer) encode() []byte {
	e := newEnc(len(c.Data))
	e.u32(c.WID)
	e.u8(c.DID)
	e.u32(c.ID)
	e.str(c.First)
	e.str(c.Middle)
	e.str(c.Last)
	e.str(c.Credit)
	e.f64(c.CreditLim)
	e.f64(c.Discount)
	e.f64(c.Balance)
	e.f64(c.YTDPayment)
	e.u32(c.PaymentCnt)
	e.u32(c.DeliveryCt)
	e.str(c.Data)
	return e.b
}

func decodeCustomer(b []byte) (Customer, error) {
	d := dec{b: b}
	c := Customer{
		WID: d.u32(), DID: d.u8(), ID: d.u32(),
		First: d.str(), Middle: d.str(), Last: d.str(), Credit: d.str(),
		CreditLim: d.f64(), Discount: d.f64(), Balance: d.f64(),
		YTDPayment: d.f64(), PaymentCnt: d.u32(), DeliveryCt: d.u32(),
		Data: d.str(),
	}
	return c, d.err
}

// pay applies one Payment to the customer row: balance and payment
// statistics, plus the spec's bad-credit rule — the payment's identity is
// spliced in front of C_DATA, which is capped at 500 characters.
func (c *Customer) pay(in PaymentInput) {
	c.Balance -= in.Amount
	c.YTDPayment += in.Amount
	c.PaymentCnt++
	if c.Credit == "BC" {
		info := fmt.Sprintf("%d %d %d %d %d %.2f|", in.CID, in.CDID, in.CWID, in.DID, in.WID, in.Amount)
		c.Data = info + c.Data
		if len(c.Data) > 500 {
			c.Data = c.Data[:500]
		}
	}
}

// History is one HISTORY row (heap resident; no primary key).
type History struct {
	CID    uint32
	CDID   uint8
	CWID   uint32
	DID    uint8
	WID    uint32
	Date   int64
	Amount float64
	Data   string
}

// newHistory builds the HISTORY row one Payment appends.
func newHistory(in PaymentInput, wh *Warehouse, dist *District) History {
	return History{
		CID: in.CID, CDID: in.CDID, CWID: in.CWID,
		DID: in.DID, WID: in.WID,
		Date: time.Now().UnixNano(), Amount: in.Amount,
		Data: wh.Name + "    " + dist.Name,
	}
}

func (h *History) encode() []byte {
	e := newEnc(0)
	e.u32(h.CID)
	e.u8(h.CDID)
	e.u32(h.CWID)
	e.u8(h.DID)
	e.u32(h.WID)
	e.i64(h.Date)
	e.f64(h.Amount)
	e.str(h.Data)
	return e.b
}

func decodeHistory(b []byte) (History, error) {
	d := dec{b: b}
	h := History{
		CID: d.u32(), CDID: d.u8(), CWID: d.u32(), DID: d.u8(), WID: d.u32(),
		Date: d.i64(), Amount: d.f64(), Data: d.str(),
	}
	return h, d.err
}

// Order is one ORDERS row.
type Order struct {
	WID       uint32
	DID       uint8
	ID        uint32
	CID       uint32
	EntryDate int64
	CarrierID uint8
	OLCount   uint8
	AllLocal  bool
}

// newOrderRows builds the ORDERS and NEW_ORDER rows of New Order in
// under order id oid.
func newOrderRows(in NewOrderInput, oid uint32) (Order, NewOrderRow) {
	allLocal := true
	for _, l := range in.Lines {
		if l.SupplyWID != in.WID {
			allLocal = false
		}
	}
	return Order{
		WID: in.WID, DID: in.DID, ID: oid, CID: in.CID,
		EntryDate: time.Now().UnixNano(),
		OLCount:   uint8(len(in.Lines)), AllLocal: allLocal,
	}, NewOrderRow{WID: in.WID, DID: in.DID, OID: oid}
}

func (o *Order) encode() []byte {
	e := newEnc(0)
	e.u32(o.WID)
	e.u8(o.DID)
	e.u32(o.ID)
	e.u32(o.CID)
	e.i64(o.EntryDate)
	e.u8(o.CarrierID)
	e.u8(o.OLCount)
	if o.AllLocal {
		e.u8(1)
	} else {
		e.u8(0)
	}
	return e.b
}

func decodeOrder(b []byte) (Order, error) {
	d := dec{b: b}
	o := Order{
		WID: d.u32(), DID: d.u8(), ID: d.u32(), CID: d.u32(),
		EntryDate: d.i64(), CarrierID: d.u8(), OLCount: d.u8(), AllLocal: d.u8() == 1,
	}
	return o, d.err
}

// NewOrderRow is one NEW_ORDER row.
type NewOrderRow struct {
	WID uint32
	DID uint8
	OID uint32
}

func (n *NewOrderRow) encode() []byte {
	e := newEnc(0)
	e.u32(n.WID)
	e.u8(n.DID)
	e.u32(n.OID)
	return e.b
}

func decodeNewOrderRow(b []byte) (NewOrderRow, error) {
	d := dec{b: b}
	n := NewOrderRow{WID: d.u32(), DID: d.u8(), OID: d.u32()}
	return n, d.err
}

// OrderLine is one ORDER_LINE row.
type OrderLine struct {
	WID       uint32
	DID       uint8
	OID       uint32
	Number    uint8
	ItemID    uint32
	SupplyWID uint32
	Quantity  uint8
	Amount    float64
	DistInfo  string
}

// newOrderLineRow builds ORDER_LINE row idx+1 of New Order in from the
// line's item and its (already decremented) stock row.
func newOrderLineRow(in NewOrderInput, oid uint32, idx int, item *Item, st *Stock) OrderLine {
	l := in.Lines[idx]
	return OrderLine{
		WID: in.WID, DID: in.DID, OID: oid, Number: uint8(idx + 1),
		ItemID: l.ItemID, SupplyWID: l.SupplyWID, Quantity: l.Quantity,
		Amount:   float64(l.Quantity) * item.Price,
		DistInfo: st.DistInfo,
	}
}

func (ol *OrderLine) encode() []byte {
	e := newEnc(0)
	e.u32(ol.WID)
	e.u8(ol.DID)
	e.u32(ol.OID)
	e.u8(ol.Number)
	e.u32(ol.ItemID)
	e.u32(ol.SupplyWID)
	e.u8(ol.Quantity)
	e.f64(ol.Amount)
	e.str(ol.DistInfo)
	return e.b
}

func decodeOrderLine(b []byte) (OrderLine, error) {
	d := dec{b: b}
	ol := OrderLine{
		WID: d.u32(), DID: d.u8(), OID: d.u32(), Number: d.u8(),
		ItemID: d.u32(), SupplyWID: d.u32(), Quantity: d.u8(),
		Amount: d.f64(), DistInfo: d.str(),
	}
	return ol, d.err
}

// Item is one ITEM row.
type Item struct {
	ID    uint32
	ImID  uint32
	Name  string
	Price float64
	Data  string
}

func (i *Item) encode() []byte {
	e := newEnc(0)
	e.u32(i.ID)
	e.u32(i.ImID)
	e.str(i.Name)
	e.f64(i.Price)
	e.str(i.Data)
	return e.b
}

func decodeItem(b []byte) (Item, error) {
	d := dec{b: b}
	i := Item{ID: d.u32(), ImID: d.u32(), Name: d.str(), Price: d.f64(), Data: d.str()}
	return i, d.err
}

// Stock is one STOCK row.
type Stock struct {
	WID       uint32
	ItemID    uint32
	Quantity  int32
	YTD       float64
	OrderCnt  uint32
	RemoteCnt uint32
	DistInfo  string
	Data      string
}

// order applies one New Order line to the stock row: the spec's
// decrement-or-restock rule and the order counters; homeW is the ordering
// warehouse, so a row of another warehouse counts a remote order.
func (s *Stock) order(l NewOrderLine, homeW uint32) {
	if s.Quantity >= int32(l.Quantity)+10 {
		s.Quantity -= int32(l.Quantity)
	} else {
		s.Quantity += 91 - int32(l.Quantity)
	}
	s.YTD += float64(l.Quantity)
	s.OrderCnt++
	if l.SupplyWID != homeW {
		s.RemoteCnt++
	}
}

func (s *Stock) encode() []byte {
	e := newEnc(0)
	e.u32(s.WID)
	e.u32(s.ItemID)
	e.u32(uint32(s.Quantity))
	e.f64(s.YTD)
	e.u32(s.OrderCnt)
	e.u32(s.RemoteCnt)
	e.str(s.DistInfo)
	e.str(s.Data)
	return e.b
}

func decodeStock(b []byte) (Stock, error) {
	d := dec{b: b}
	s := Stock{
		WID: d.u32(), ItemID: d.u32(), Quantity: int32(d.u32()), YTD: d.f64(),
		OrderCnt: d.u32(), RemoteCnt: d.u32(), DistInfo: d.str(), Data: d.str(),
	}
	return s, d.err
}
