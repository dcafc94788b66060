// Package pageop defines the physiological log payloads of the storage
// manager: small, typed, slot-level page operations that are deterministic
// to redo (guarded by the page LSN) and mechanically invertible for
// physical undo. B-tree key mutations additionally carry *logical* undo
// (key-level), because a structure modification may move a key to another
// page between do and undo (the ARIES/IM approach).
//
// A record carries each changed byte once. An update is a byte-range
// patch: the bytes between the common prefix and suffix of the old and the
// new record, never the whole record and never the before-image in the
// redo. What an op takes off the page (Op.Old) exists in memory only, for
// Invert; the undo side of a record holds just what redo cannot derive:
// the reverse patch, a deleted record's body, or a bare slot. Every kind
// has its own layout (the kinds table), integers are uvarints, and the
// last field of a payload runs to its end: the log record already frames
// redo and undo.
package pageop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/page"
)

// Kind identifies a physical page operation.
type Kind uint8

// Physical operation kinds. Values 1–7 belonged to the fixed-header layout
// that logged whole before-images, and 14 to a page image that carried all
// page.Size bytes, free gap included; they are retired, so a log written
// in either decodes to ErrBadOp instead of being misapplied.
const (
	KindInvalid    Kind = 0
	KindFormat     Kind = iota + 7 // initialize a page: type + store
	KindInsertAt                   // index page: insert record at slot index
	KindRemoveAt                   // index page: remove record at slot index
	KindPatch                      // replace a byte range of the record in a slot
	KindHeapInsert                 // heap page: place record into a specific slot
	KindHeapDelete                 // heap page: tombstone a slot
	_                              // 14: the retired whole-page image
	KindPageImage                  // overwrite the page with an after-image less its free gap
)

// A layout says which fields follow a kind's byte, as a set of these bits
// in this order: the integers as uvarints, then Data to the payload's end.
const (
	hasSlot = 1 << iota
	hasOff
	hasDel
	hasPType
	hasStore
	hasData
)

// kinds holds each kind's name and layout; a kind that is none has neither.
// No layout has room for Op.Old.
var kinds = [256]struct {
	name   string
	layout uint8
}{
	KindFormat:     {"format", hasPType | hasStore},
	KindInsertAt:   {"insertAt", hasSlot | hasData},
	KindRemoveAt:   {"removeAt", hasSlot},
	KindPatch:      {"patch", hasSlot | hasOff | hasDel | hasData},
	KindHeapInsert: {"heapInsert", hasSlot | hasData},
	KindHeapDelete: {"heapDelete", hasSlot},
	KindPageImage:  {"pageImage", hasOff | hasDel | hasData},
}

// String names the kind.
func (k Kind) String() string {
	if name := kinds[k].name; name != "" {
		return name
	}
	return fmt.Sprintf("op%d", uint8(k))
}

// Op is one physical page operation.
type Op struct {
	Kind  Kind
	Slot  uint16    // slot / index position
	Off   uint16    // Patch: where the replaced range starts in the record; PageImage: where the hole starts
	Del   uint16    // Patch: how many bytes the range loses; PageImage: how long the hole is
	PType page.Type // for Format
	Store uint32    // for Format
	Data  []byte    // the bytes op puts on the page
	// Old is what op takes off the page (a patched range, a removed
	// record). It feeds Invert and is never encoded: decoded ops lack it.
	Old []byte
}

// ErrBadOp reports a malformed encoded operation.
var ErrBadOp = errors.New("pageop: malformed operation")

// Patch returns the op that turns old into upd inside slot's record, where
// old starts base bytes into it: the range left after trimming their
// common prefix and suffix. Data and Old alias upd and old.
func Patch(slot uint16, base int, old, upd []byte) Op {
	pre := commonPrefix(old, upd)
	suf := commonSuffix(old[pre:], upd[pre:])
	return Op{
		Kind: KindPatch, Slot: slot, Off: uint16(base + pre), Del: uint16(len(old) - pre - suf),
		Data: upd[pre : len(upd)-suf], Old: old[pre : len(old)-suf],
	}
}

// commonPrefix counts the leading bytes a and b share, a word at a time.
func commonPrefix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix counts the trailing bytes a and b share.
func commonSuffix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[len(a)-i-8:]) ^ binary.LittleEndian.Uint64(b[len(b)-i-8:]); x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// Image returns the page image op for buf, a whole page: its bytes without
// the hole, the free gap between the slot directory and the record heap,
// which Apply zeroes. Data is a fresh slice. A buf that is not a page gives
// an op Check refuses.
func Image(buf []byte) Op {
	op := Op{Kind: KindPageImage, Data: buf}
	if p, err := page.Wrap(buf); err == nil {
		off, hole := p.Gap()
		op.Off, op.Del = uint16(off), uint16(hole)
		op.Data = append(append(make([]byte, 0, len(buf)-hole), buf[:off]...), buf[off+hole:]...)
	}
	return op
}

// checkImage reports whether a page image op rebuilds exactly one page:
// its hole and its bytes add up to page.Size, and the hole starts inside
// the bytes.
func checkImage(op Op) error {
	if int(op.Del)+len(op.Data) != page.Size || int(op.Off) > len(op.Data) {
		return fmt.Errorf("%w: page image of %d bytes with a %d-byte hole at %d", ErrBadOp, len(op.Data), op.Del, op.Off)
	}
	return nil
}

// MaxHeader bounds what an encoding spends outside its byte fields (an
// op's Data; a logical descriptor's Key and Value): enough to size a buffer
// for a record before building it.
const MaxHeader = 16

// ints lists op's integer fields in layout order.
func (op Op) ints() [5]uint64 {
	return [5]uint64{uint64(op.Slot), uint64(op.Off), uint64(op.Del), uint64(op.PType), uint64(op.Store)}
}

// Encode serializes op into a fresh slice.
func (op Op) Encode() []byte { return op.AppendEncode(nil) }

// AppendEncode appends op's serialization to dst and returns the extended
// slice.
func (op Op) AppendEncode(dst []byte) []byte {
	dst, l := append(dst, byte(op.Kind)), kinds[op.Kind].layout
	for i, v := range op.ints() {
		if l&(1<<i) != 0 {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	if l&hasData != 0 {
		dst = append(dst, op.Data...)
	}
	return dst
}

// reader consumes the uvarints at the front of a payload. Decoding is
// strict — a padded or oversized integer is malformed — so whatever
// decodes re-encodes to the same bytes.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > max || n > 1 && r.b[n-1] == 0 { // a final zero byte is padding
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Decode parses an encoded operation. Data aliases b.
func Decode(b []byte) (Op, error) {
	if len(b) == 0 {
		return Op{}, fmt.Errorf("%w: empty payload", ErrBadOp)
	}
	l, r, v := kinds[b[0]].layout, reader{b: b[1:]}, [5]uint64{}
	if l == 0 {
		return Op{}, fmt.Errorf("%w: kind %d", ErrBadOp, b[0])
	}
	for i, max := range [5]uint64{0xffff, 0xffff, 0xffff, 0xffff, 0xffffffff} {
		if l&(1<<i) != 0 {
			v[i] = r.uvarint(max)
		}
	}
	op := Op{Kind: Kind(b[0]), Slot: uint16(v[0]), Off: uint16(v[1]), Del: uint16(v[2]), PType: page.Type(v[3]), Store: uint32(v[4])}
	if l&hasData != 0 {
		op.Data = r.b
	} else if len(r.b) > 0 {
		r.bad = true
	}
	if r.bad {
		return Op{}, fmt.Errorf("%w: bad %v payload", ErrBadOp, op.Kind)
	}
	if op.Kind == KindPageImage {
		if err := checkImage(op); err != nil {
			return Op{}, err
		}
	}
	return op, nil
}

// Check reports the error Apply would return for op on p, without touching
// the page: the slot exists (or is free, for an insert), a patch's range
// lies inside the record, and the result fits.
func Check(p *page.Page, op Op) error {
	switch op.Kind {
	case KindFormat:
		return nil
	case KindInsertAt:
		return p.CheckInsertAt(int(op.Slot), len(op.Data))
	case KindRemoveAt:
		if int(op.Slot) >= p.NumSlots() {
			return page.ErrBadSlot
		}
		return nil
	case KindHeapDelete:
		_, err := p.Record(int(op.Slot))
		return err
	case KindPatch:
		return p.CheckSplice(int(op.Slot), int(op.Off), int(op.Del), len(op.Data))
	case KindHeapInsert:
		return p.CheckPlaceAt(int(op.Slot), len(op.Data))
	case KindPageImage:
		return checkImage(op)
	default:
		return fmt.Errorf("%w: kind %d", ErrBadOp, op.Kind)
	}
}

// Apply executes op against p. Redo idempotence is the caller's job (the
// page-LSN gate); Apply itself assumes the page is in the pre-op state.
func Apply(p *page.Page, op Op) error {
	switch op.Kind {
	case KindFormat:
		p.Init(p.PID(), op.PType, op.Store)
		return nil
	case KindInsertAt:
		return p.InsertAt(int(op.Slot), op.Data)
	case KindRemoveAt:
		return p.RemoveAt(int(op.Slot))
	case KindPatch:
		return p.Splice(int(op.Slot), int(op.Off), int(op.Del), op.Data)
	case KindHeapInsert:
		return p.PlaceAt(int(op.Slot), op.Data)
	case KindHeapDelete:
		return p.Delete(int(op.Slot))
	case KindPageImage:
		if err := checkImage(op); err != nil {
			return err
		}
		b, off, end := p.Bytes(), int(op.Off), int(op.Off)+int(op.Del)
		copy(b, op.Data[:off])
		clear(b[off:end])
		copy(b[end:], op.Data[off:])
		return nil
	default:
		return fmt.Errorf("%w: kind %d", ErrBadOp, op.Kind)
	}
}

// Invert returns the physical inverse of op, or ok=false for operations
// that have none (Format, PageImage). The inverse of an op that takes
// bytes off the page puts op.Old back, so op must come from the forward
// path, not from Decode.
func Invert(op Op) (Op, bool) {
	switch op.Kind {
	case KindInsertAt:
		return Op{Kind: KindRemoveAt, Slot: op.Slot, Old: op.Data}, true
	case KindRemoveAt:
		return Op{Kind: KindInsertAt, Slot: op.Slot, Data: op.Old}, true
	case KindPatch:
		return Op{Kind: KindPatch, Slot: op.Slot, Off: op.Off, Del: uint16(len(op.Data)), Data: op.Old, Old: op.Data}, true
	case KindHeapInsert:
		return Op{Kind: KindHeapDelete, Slot: op.Slot, Old: op.Data}, true
	case KindHeapDelete:
		return Op{Kind: KindHeapInsert, Slot: op.Slot, Data: op.Old}, true
	default:
		return Op{}, false
	}
}

// Logical undo descriptors -------------------------------------------------

// LogicalKind identifies a logical (re-traversing) undo action.
type LogicalKind uint8

// Logical undo kinds.
const (
	LogicalNone        LogicalKind = iota
	LogicalBTreeDelete             // undo of a B-tree insert: delete the key
	LogicalBTreeInsert             // undo of a B-tree delete: re-insert key→value
	LogicalBTreeUpdate             // undo of a B-tree update: put the changed range back
)

// Logical is a logical undo descriptor. For LogicalBTreeUpdate, Value is
// the old content of the changed range only: the undo puts it between the
// first Off and the last Suf bytes of the key's value. Anchoring the range
// at both ends makes that idempotent — run on a value already restored, it
// replaces the old range by itself.
type Logical struct {
	Kind  LogicalKind
	Store uint32
	Key   []byte
	Off   uint16
	Suf   uint16
	Value []byte
}

// logicalTag distinguishes logical undo payloads from physical ones in the
// undo field of a log record (physical ops start with a Kind < 0x80). The
// retired fixed-header layout used 0xf0.
const logicalTag = 0xf1

// Encode serializes l into a fresh slice.
func (l Logical) Encode() []byte { return l.AppendEncode(nil) }

// AppendEncode appends l's serialization to dst and returns the extended
// slice.
func (l Logical) AppendEncode(dst []byte) []byte {
	dst = append(dst, logicalTag, byte(l.Kind))
	dst = binary.AppendUvarint(dst, uint64(l.Store))
	dst = binary.AppendUvarint(dst, uint64(len(l.Key)))
	dst = append(dst, l.Key...)
	if l.Kind == LogicalBTreeUpdate {
		dst = binary.AppendUvarint(dst, uint64(l.Off))
		dst = binary.AppendUvarint(dst, uint64(l.Suf))
	}
	return append(dst, l.Value...)
}

// IsLogical reports whether an undo payload is a logical descriptor.
func IsLogical(b []byte) bool { return len(b) > 0 && b[0] == logicalTag }

// DecodeLogical parses a logical undo descriptor. Key and Value alias b.
func DecodeLogical(b []byte) (Logical, error) {
	if len(b) < 2 || b[0] != logicalTag {
		return Logical{}, fmt.Errorf("%w: not a logical undo", ErrBadOp)
	}
	l, r := Logical{Kind: LogicalKind(b[1])}, reader{b: b[2:]}
	if l.Kind == LogicalNone || l.Kind > LogicalBTreeUpdate {
		return Logical{}, fmt.Errorf("%w: logical kind %d", ErrBadOp, b[1])
	}
	l.Store = uint32(r.uvarint(0xffffffff))
	keyLen := r.uvarint(uint64(len(b)))
	if r.bad || keyLen > uint64(len(r.b)) {
		return Logical{}, fmt.Errorf("%w: truncated logical undo", ErrBadOp)
	}
	l.Key, r.b = r.b[:keyLen], r.b[keyLen:]
	if l.Kind == LogicalBTreeUpdate {
		l.Off = uint16(r.uvarint(0xffff))
		l.Suf = uint16(r.uvarint(0xffff))
	}
	if r.bad {
		return Logical{}, fmt.Errorf("%w: bad logical update range", ErrBadOp)
	}
	l.Value = r.b
	return l, nil
}
