// Package tpcc implements the TPC-C subset the paper benchmarks with
// (§3.2): the full nine-table schema, the standard NURand key generator,
// a scale-configurable loader, and the five transactions, of which
// Payment and New Order — 88% of the mix — are the workloads of Figure 5.
//
// Rows live in B-tree primary indexes keyed by their composite primary
// keys (big-endian encodings so ranges scan in order); HISTORY, which has
// no primary key, lives in a heap table.
//
// Each transaction is written once, as a plan over named rows (plan.go),
// run by two executors: embedded (core calls on one transaction: the
// …Ctx entry points) and DORA (steps grouped into per-partition actions
// whose lock lists derive from the steps' reads). A served database runs
// the embedded one for remote callers too: Load registers each
// transaction as a program on the engine, and Remote sends one frame per
// transaction naming the program and carrying its input (remote.go). A
// row the plan writes back is read X up front, on every back end.
// CheckConsistency audits TPC-C's consistency conditions 1–4.
package tpcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrShortRow reports a truncated row during decoding.
var ErrShortRow = errors.New("tpcc: truncated row")

// enc is a tiny append-only row encoder.
type enc struct{ b []byte }

// rowRoom is the room a row encoding needs beyond its longest string:
// every row but a customer's (whose C_DATA is the longest string) fits in
// it, so an encoding into a buffer of rowRoom+extra bytes never grows.
const rowRoom = 128

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	e.b = append(e.b, byte(len(s)>>8), byte(len(s)))
	e.b = append(e.b, s...)
}

// bytes is str for an encoded row.
func (e *enc) bytes(b []byte) {
	e.b = append(e.b, byte(len(b)>>8), byte(len(b)))
	e.b = append(e.b, b...)
}

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// dec is the matching decoder.
type dec struct {
	b   []byte
	off int
	err error
}

// take consumes the next n bytes. Past the row's end it records
// ErrShortRow and returns n zero bytes, so every field after decodes as
// its zero value.
func (d *dec) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.b) {
		d.err = ErrShortRow
		return make([]byte, n)
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

func (d *dec) u8() uint8    { return d.take(1)[0] }
func (d *dec) u32() uint32  { return binary.BigEndian.Uint32(d.take(4)) }
func (d *dec) u64() uint64  { return binary.BigEndian.Uint64(d.take(8)) }
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// str decodes a string that aliases the row: no copy is made, so it is
// valid while the row's bytes are, which for a row a transaction read is
// until that transaction ends (its arena is reused then). A string that
// outlives it is cloned (OrderStatusResult.own).
func (d *dec) str() string { return view(d.bytes()) }

// view is b as a string, without a copy: b must not change while the
// string is in use.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// bytes decodes a length-prefixed field: the result aliases the input.
func (d *dec) bytes() []byte {
	n := d.take(2)
	return d.take(int(n[0])<<8 | int(n[1]))
}

// argsErr is the verdict on a whole decoded argument blob: ErrBadArgs if
// it was short, has bytes left over, or is not valid.
func (d *dec) argsErr(valid bool) error {
	switch {
	case d.err != nil:
		return fmt.Errorf("%w: %v", ErrBadArgs, d.err)
	case d.off != len(d.b):
		return fmt.Errorf("%w: %d bytes left over", ErrBadArgs, len(d.b)-d.off)
	case !valid:
		return fmt.Errorf("%w: out of range", ErrBadArgs)
	}
	return nil
}
