package tpcc

import (
	"bytes"
	"errors"
	"testing"
)

// argCodecs are the five program argument decoders, each as: decode data,
// re-encode what it accepted, and whether that is in the generators' range.
var argCodecs = []struct {
	name   string
	decode func([]byte) (reencode func() []byte, inRange bool, err error)
}{
	{"payment", func(b []byte) (func() []byte, bool, error) {
		in, err := decodePaymentArgs(b)
		return func() []byte { return in.appendArgs(nil) }, true, err
	}},
	{"new order", func(b []byte) (func() []byte, bool, error) {
		in, err := decodeNewOrderArgs(b)
		return func() []byte { return in.appendArgs(nil) }, len(in.Lines) <= maxLines, err
	}},
	{"order status", func(b []byte) (func() []byte, bool, error) {
		in, err := decodeOrderStatusArgs(b)
		return func() []byte { return in.appendArgs(nil) }, true, err
	}},
	{"stock level", func(b []byte) (func() []byte, bool, error) {
		in, err := decodeStockLevelArgs(b)
		return func() []byte { return in.appendArgs(nil) }, true, err
	}},
	{"delivery", func(b []byte) (func() []byte, bool, error) {
		in, err := decodeDeliveryArgs(b)
		return func() []byte { return in.appendArgs(nil) }, in.CarrierID >= 1 && in.CarrierID <= 10, err
	}},
}

// FuzzProgramArgs feeds every blob to the five argument decoders. None may
// panic; a refusal is ErrBadArgs; what one accepts re-encodes to the same
// bytes, is in range (at most 15 order lines, a carrier id from 1 to 10),
// and no strict prefix of it is accepted (a truncated call is refused,
// never read as a shorter input).
func FuzzProgramArgs(f *testing.F) {
	r, scale := NewRand(5), TinyScale()
	no := GenNewOrder(r, scale, 1)
	no.Rollback = true
	f.Add(GenPayment(r, scale, 1).appendArgs(nil))
	f.Add(no.appendArgs(nil))
	f.Add(GenOrderStatus(r, scale, 2).appendArgs(nil))
	f.Add(GenStockLevel(r, scale, 2).appendArgs(nil))
	f.Add(GenDelivery(r, scale, 2).appendArgs(nil))
	f.Add(DeliveryInput{WID: 1, CarrierID: 11}.appendArgs(nil))
	no.Lines = append(no.Lines, make([]NewOrderLine, 16-len(no.Lines))...)
	f.Add(no.appendArgs(nil)) // 16 lines
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range argCodecs {
			reencode, inRange, err := c.decode(data)
			if err != nil {
				if !errors.Is(err, ErrBadArgs) {
					t.Fatalf("%s refused %x with %v, not ErrBadArgs", c.name, data, err)
				}
				continue
			}
			if !inRange {
				t.Fatalf("%s accepted %x, out of range", c.name, data)
			}
			if re := reencode(); !bytes.Equal(re, data) {
				t.Fatalf("%s accepted %x and re-encodes it as %x", c.name, data, re)
			}
			for n := range data {
				if _, _, err := c.decode(data[:n]); err == nil {
					t.Fatalf("%s accepted %x truncated to %d bytes", c.name, data, n)
				}
			}
		}
	})
}
