package pageop

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/page"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: KindFormat, PType: page.TypeHeap, Store: 7},
		{Kind: KindInsertAt, Slot: 3, Data: []byte("abc")},
		{Kind: KindRemoveAt, Slot: 1, Data: []byte("xyz")},
		{Kind: KindUpdateAt, Slot: 2, Data: []byte("new"), Old: []byte("older")},
		{Kind: KindHeapInsert, Slot: 9, Data: []byte("rec")},
		{Kind: KindHeapDelete, Slot: 4, Old: []byte("gone")},
	}
	for _, op := range ops {
		enc := op.Encode()
		if len(enc) != op.EncodedSize() {
			t.Fatalf("%v: encoded %d bytes, EncodedSize %d", op.Kind, len(enc), op.EncodedSize())
		}
		if app := op.AppendEncode([]byte("prefix")); !bytes.Equal(app, append([]byte("prefix"), enc...)) {
			t.Fatalf("%v: AppendEncode after a prefix = %x", op.Kind, app)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", op.Kind, err)
		}
		if got.Kind != op.Kind || got.Slot != op.Slot || got.PType != op.PType ||
			got.Store != op.Store || !bytes.Equal(got.Data, op.Data) || !bytes.Equal(got.Old, op.Old) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, op)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil decode succeeded")
	}
	op := Op{Kind: KindInsertAt, Data: []byte("hello")}
	enc := op.Encode()
	if _, err := Decode(enc[:len(enc)-2]); err == nil {
		t.Error("truncated decode succeeded")
	}
}

func TestApplyAndInvertHeap(t *testing.T) {
	p := page.New(1, page.TypeHeap, 5)
	ins := Op{Kind: KindHeapInsert, Slot: 0, Data: []byte("record-a")}
	if err := Apply(p, ins); err != nil {
		t.Fatal(err)
	}
	r, err := p.Record(0)
	if err != nil || string(r) != "record-a" {
		t.Fatalf("after heap insert: %q, %v", r, err)
	}
	inv, ok := Invert(ins)
	if !ok {
		t.Fatal("heap insert has no inverse")
	}
	if err := Apply(p, inv); err != nil {
		t.Fatal(err)
	}
	if p.LiveRecords() != 0 {
		t.Fatal("inverse did not delete the record")
	}
	// Inverse of the inverse re-inserts.
	inv2, ok := Invert(inv)
	if !ok {
		t.Fatal("heap delete has no inverse")
	}
	if err := Apply(p, inv2); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "record-a" {
		t.Fatal("double inverse lost the record")
	}
}

func TestApplyAndInvertIndex(t *testing.T) {
	p := page.New(1, page.TypeBTree, 5)
	a := Op{Kind: KindInsertAt, Slot: 0, Data: []byte("k1")}
	b := Op{Kind: KindInsertAt, Slot: 1, Data: []byte("k2")}
	for _, op := range []Op{a, b} {
		if err := Apply(p, op); err != nil {
			t.Fatal(err)
		}
	}
	upd := Op{Kind: KindUpdateAt, Slot: 0, Data: []byte("k1-new"), Old: []byte("k1")}
	if err := Apply(p, upd); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "k1-new" {
		t.Fatalf("after update: %q", r)
	}
	inv, _ := Invert(upd)
	if err := Apply(p, inv); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "k1" {
		t.Fatalf("after update undo: %q", r)
	}
	rm := Op{Kind: KindRemoveAt, Slot: 0, Data: []byte("k1")}
	if err := Apply(p, rm); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "k2" {
		t.Fatalf("after remove: %q", r)
	}
	rmInv, _ := Invert(rm)
	if err := Apply(p, rmInv); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "k1" {
		t.Fatal("remove undo failed")
	}
}

func TestApplyFormat(t *testing.T) {
	p := page.New(9, page.TypeFree, 0)
	if err := Apply(p, Op{Kind: KindFormat, PType: page.TypeBTree, Store: 3}); err != nil {
		t.Fatal(err)
	}
	if p.Type() != page.TypeBTree || p.Store() != 3 || p.PID() != 9 {
		t.Fatalf("after format: type=%v store=%d pid=%v", p.Type(), p.Store(), p.PID())
	}
	if _, ok := Invert(Op{Kind: KindFormat}); ok {
		t.Error("format should have no physical inverse")
	}
	if err := Apply(p, Op{Kind: KindInvalid}); err == nil {
		t.Error("invalid op applied")
	}
}

func TestPlaceAtSemantics(t *testing.T) {
	p := page.New(1, page.TypeHeap, 0)
	// Place into slot 3 directly: directory extends with tombstones.
	if err := p.PlaceAt(3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Fatalf("NumSlots = %d, want 4", p.NumSlots())
	}
	if r, _ := p.Record(3); string(r) != "late" {
		t.Fatal("PlaceAt record wrong")
	}
	// Occupied slot rejected.
	if err := p.PlaceAt(3, []byte("x")); err != page.ErrBadSlot {
		t.Errorf("PlaceAt occupied = %v", err)
	}
	// Tombstone slot acceptable.
	if err := p.PlaceAt(1, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	// Subsequent Insert must reuse remaining tombstones, not clobber.
	s, err := p.Insert([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 && s != 2 {
		t.Fatalf("Insert landed in slot %d", s)
	}
}

func TestLogicalRoundTrip(t *testing.T) {
	l := Logical{Kind: LogicalBTreeDelete, Store: 12, Key: []byte("key"), Value: []byte("val")}
	enc := l.Encode()
	if !IsLogical(enc) {
		t.Fatal("IsLogical(enc) = false")
	}
	if app := l.AppendEncode([]byte("prefix")); len(enc) != l.EncodedSize() || !bytes.Equal(app, append([]byte("prefix"), enc...)) {
		t.Fatalf("AppendEncode after a prefix = %x, Encode = %x, EncodedSize = %d", app, enc, l.EncodedSize())
	}
	got, err := DecodeLogical(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != l.Kind || got.Store != 12 || !bytes.Equal(got.Key, l.Key) || !bytes.Equal(got.Value, l.Value) {
		t.Fatalf("logical round trip: %+v", got)
	}
	// Physical payloads are not logical.
	if IsLogical(Op{Kind: KindHeapInsert}.Encode()) {
		t.Error("physical op classified as logical")
	}
	if _, err := DecodeLogical([]byte{1, 2, 3}); err == nil {
		t.Error("bad logical decoded")
	}
}

// TestQuickApplyInvertIsIdentity: applying an op then its inverse restores
// the record content of the touched slot.
func TestQuickApplyInvertIsIdentity(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > 1000 {
			return true
		}
		p := page.New(1, page.TypeHeap, 0)
		op := Op{Kind: KindHeapInsert, Slot: 0, Data: data}
		if err := Apply(p, op); err != nil {
			return false
		}
		inv, ok := Invert(op)
		if !ok || Apply(p, inv) != nil {
			return false
		}
		return p.LiveRecords() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
