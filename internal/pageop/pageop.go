// Package pageop defines the physiological log payloads of the storage
// manager: small, typed, slot-level page operations that are deterministic
// to redo (guarded by the page LSN) and mechanically invertible for
// physical undo. B-tree record inserts additionally carry *logical* undo
// (key-level), because a structure modification may move a key to another
// page between do and undo (the ARIES/IM approach).
package pageop

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/page"
)

// Kind identifies a physical page operation.
type Kind uint8

// Physical operation kinds.
const (
	KindInvalid    Kind = iota
	KindFormat          // initialize a page: type + store
	KindInsertAt        // index page: insert record at slot index
	KindRemoveAt        // index page: remove record at slot index
	KindUpdateAt        // overwrite record in a slot
	KindHeapInsert      // heap page: place record into a specific slot
	KindHeapDelete      // heap page: tombstone a slot
	KindPageImage       // overwrite the whole page with an after-image
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFormat:
		return "format"
	case KindInsertAt:
		return "insertAt"
	case KindRemoveAt:
		return "removeAt"
	case KindUpdateAt:
		return "updateAt"
	case KindHeapInsert:
		return "heapInsert"
	case KindHeapDelete:
		return "heapDelete"
	case KindPageImage:
		return "pageImage"
	default:
		return fmt.Sprintf("op%d", uint8(k))
	}
}

// Op is one physical page operation.
type Op struct {
	Kind  Kind
	Slot  uint16    // slot / index position
	PType page.Type // for Format
	Store uint32    // for Format
	Data  []byte    // record bytes (new value for UpdateAt)
	Old   []byte    // previous record bytes (UpdateAt / deletes)
}

// ErrBadOp reports a malformed encoded operation.
var ErrBadOp = errors.New("pageop: malformed operation")

// EncodedSize returns the length of op's serialization.
func (op Op) EncodedSize() int { return 17 + len(op.Data) + len(op.Old) }

// Encode serializes op into a fresh slice.
func (op Op) Encode() []byte { return op.AppendEncode(make([]byte, 0, op.EncodedSize())) }

// AppendEncode appends op's serialization to dst and returns the extended
// slice.
//
// Layout: kind u8 | slot u16 | ptype u16 | store u32 | dataLen u32 |
// oldLen u32 | data | old.
func (op Op) AppendEncode(dst []byte) []byte {
	dst = append(dst, byte(op.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, op.Slot)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(op.PType))
	dst = binary.LittleEndian.AppendUint32(dst, op.Store)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(op.Data)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(op.Old)))
	dst = append(dst, op.Data...)
	return append(dst, op.Old...)
}

// Decode parses an encoded operation.
func Decode(b []byte) (Op, error) {
	if len(b) < 17 {
		return Op{}, fmt.Errorf("%w: short header", ErrBadOp)
	}
	dataLen := int(binary.LittleEndian.Uint32(b[9:]))
	oldLen := int(binary.LittleEndian.Uint32(b[13:]))
	if len(b) < 17+dataLen+oldLen {
		return Op{}, fmt.Errorf("%w: truncated payload", ErrBadOp)
	}
	op := Op{
		Kind:  Kind(b[0]),
		Slot:  binary.LittleEndian.Uint16(b[1:]),
		PType: page.Type(binary.LittleEndian.Uint16(b[3:])),
		Store: binary.LittleEndian.Uint32(b[5:]),
	}
	if dataLen > 0 {
		op.Data = append([]byte(nil), b[17:17+dataLen]...)
	}
	if oldLen > 0 {
		op.Old = append([]byte(nil), b[17+dataLen:17+dataLen+oldLen]...)
	}
	return op, nil
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
	case KindUpdateAt:
		return p.Update(int(op.Slot), op.Data)
	case KindHeapInsert:
		return p.PlaceAt(int(op.Slot), op.Data)
	case KindHeapDelete:
		return p.Delete(int(op.Slot))
	case KindPageImage:
		if len(op.Data) != page.Size {
			return fmt.Errorf("%w: page image is %d bytes", ErrBadOp, len(op.Data))
		}
		copy(p.Bytes(), op.Data)
		return nil
	default:
		return fmt.Errorf("%w: kind %d", ErrBadOp, op.Kind)
	}
}

// Invert returns the physical inverse of op, or ok=false for operations
// that have no physical inverse (Format) or that require logical undo.
func Invert(op Op) (Op, bool) {
	switch op.Kind {
	case KindInsertAt:
		return Op{Kind: KindRemoveAt, Slot: op.Slot, Data: op.Data}, true
	case KindRemoveAt:
		return Op{Kind: KindInsertAt, Slot: op.Slot, Data: op.Data}, true
	case KindUpdateAt:
		return Op{Kind: KindUpdateAt, Slot: op.Slot, Data: op.Old, Old: op.Data}, true
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
	LogicalBTreeUpdate             // undo of a B-tree update: restore key→old value
)

// Logical is a logical undo descriptor.
type Logical struct {
	Kind  LogicalKind
	Store uint32
	Key   []byte
	Value []byte
}

// logicalTag distinguishes logical undo payloads from physical ones in the
// undo field of a log record (physical ops start with a Kind < 0x80).
const logicalTag = 0xf0

// EncodedSize returns the length of l's serialization.
func (l Logical) EncodedSize() int { return 14 + len(l.Key) + len(l.Value) }

// Encode serializes l into a fresh slice.
func (l Logical) Encode() []byte { return l.AppendEncode(make([]byte, 0, l.EncodedSize())) }

// AppendEncode appends l's serialization to dst and returns the extended
// slice.
func (l Logical) AppendEncode(dst []byte) []byte {
	dst = append(dst, logicalTag, byte(l.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, l.Store)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l.Value)))
	dst = append(dst, l.Key...)
	return append(dst, l.Value...)
}

// IsLogical reports whether an undo payload is a logical descriptor.
func IsLogical(b []byte) bool { return len(b) > 0 && b[0] == logicalTag }

// DecodeLogical parses a logical undo descriptor.
func DecodeLogical(b []byte) (Logical, error) {
	if len(b) < 14 || b[0] != logicalTag {
		return Logical{}, fmt.Errorf("%w: not a logical undo", ErrBadOp)
	}
	keyLen := int(binary.LittleEndian.Uint32(b[6:]))
	valLen := int(binary.LittleEndian.Uint32(b[10:]))
	if len(b) < 14+keyLen+valLen {
		return Logical{}, fmt.Errorf("%w: truncated logical undo", ErrBadOp)
	}
	l := Logical{
		Kind:  LogicalKind(b[1]),
		Store: binary.LittleEndian.Uint32(b[2:]),
	}
	if keyLen > 0 {
		l.Key = append([]byte(nil), b[14:14+keyLen]...)
	}
	if valLen > 0 {
		l.Value = append([]byte(nil), b[14+keyLen:14+keyLen+valLen]...)
	}
	return l, nil
}
