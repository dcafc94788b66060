package pageop

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/page"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: KindFormat, PType: page.TypeHeap, Store: 7},
		{Kind: KindFormat, PType: page.TypeBTree, Store: 70000},
		{Kind: KindInsertAt, Slot: 3, Data: []byte("abc")},
		{Kind: KindRemoveAt, Slot: 300},
		{Kind: KindPatch, Slot: 2, Off: 130, Del: 5, Data: []byte("new")},
		{Kind: KindPatch, Slot: 2, Off: 1, Del: 3},
		{Kind: KindPatch, Slot: 0xffff, Off: 0xffff, Del: 0xffff, Data: []byte("widest")},
		{Kind: KindFormat, PType: 0xffff, Store: 0xffffffff},
		{Kind: KindHeapInsert, Slot: 9, Data: []byte("rec")},
		{Kind: KindHeapDelete, Slot: 4},
		{Kind: KindPageImage, Data: bytes.Repeat([]byte{7}, page.Size)},
	}
	for _, op := range ops {
		enc := op.Encode()
		if over := len(enc) - len(op.Data); over > MaxHeader {
			t.Fatalf("%v: %d bytes besides Data, MaxHeader is %d", op.Kind, over, MaxHeader)
		}
		if app := op.AppendEncode([]byte("prefix")); !bytes.Equal(app, append([]byte("prefix"), enc...)) {
			t.Fatalf("%v: AppendEncode after a prefix = %x", op.Kind, app)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", op.Kind, err)
		}
		if got.Kind != op.Kind || got.Slot != op.Slot || got.Off != op.Off || got.Del != op.Del ||
			got.PType != op.PType || got.Store != op.Store || !bytes.Equal(got.Data, op.Data) || got.Old != nil {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, op)
		}
	}
}

// TestBeforeImageIsNeverEncoded: Old is for Invert; no layout has room for
// it, so a redo cannot carry a before-image however the op was built.
func TestBeforeImageIsNeverEncoded(t *testing.T) {
	for k := KindFormat; k <= KindPageImage; k++ {
		op := Op{Kind: k, Slot: 1, Off: 2, Del: 3, Data: []byte("data")}
		with := op
		with.Old = []byte("before-image")
		if !bytes.Equal(op.Encode(), with.Encode()) {
			t.Errorf("%v: Old changes the encoding", k)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for name, b := range map[string][]byte{
		"nil":               nil,
		"no slot":           {byte(KindInsertAt)},
		"cut uvarint":       {byte(KindHeapDelete), 0x80},
		"padded uvarint":    {byte(KindHeapDelete), 0x80, 0x00},
		"slot over 16 bit":  {byte(KindHeapDelete), 0x80, 0x80, 0x04},
		"trailing bytes":    {byte(KindRemoveAt), 1, 2},
		"patch without del": {byte(KindPatch), 1, 2},
		"unknown kind":      {0x7f, 1},
	} {
		if _, err := Decode(b); !errors.Is(err, ErrBadOp) {
			t.Errorf("%s: Decode(%x) = %v, want ErrBadOp", name, b, err)
		}
	}
}

// TestRetiredLayoutIsRefused hand-builds the payloads the fixed-header
// layout wrote (kind u8 | slot u16 | ptype u16 | store u32 | dataLen u32 |
// oldLen u32 | data | old, kinds 1–7; logical tag 0xf0) and expects every
// one to be refused rather than read as something else.
func TestRetiredLayoutIsRefused(t *testing.T) {
	oldLayout := func(kind byte, slot uint16, data, old []byte) []byte {
		b := []byte{kind}
		b = binary.LittleEndian.AppendUint16(b, slot)
		b = binary.LittleEndian.AppendUint16(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(old)))
		return append(append(b, data...), old...)
	}
	for kind := byte(1); kind <= 7; kind++ {
		if op, err := Decode(oldLayout(kind, 3, []byte("new value"), []byte("old value"))); !errors.Is(err, ErrBadOp) {
			t.Errorf("retired kind %d decoded to %+v, %v", kind, op, err)
		}
	}
	oldLogical := append([]byte{0xf0, byte(LogicalBTreeUpdate)}, make([]byte, 12)...)
	if IsLogical(oldLogical) {
		t.Error("retired logical tag still classified as logical")
	}
	if _, err := DecodeLogical(oldLogical); !errors.Is(err, ErrBadOp) {
		t.Errorf("retired logical descriptor: %v", err)
	}
	if _, err := Decode(oldLogical); !errors.Is(err, ErrBadOp) {
		t.Errorf("retired logical descriptor as an op: %v", err)
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
	old, _ := p.Record(0)
	upd := Patch(0, 0, old, []byte("k1-new"))
	if upd.Off != 2 || upd.Del != 0 || string(upd.Data) != "-new" {
		t.Fatalf("patch k1 -> k1-new = %+v", upd)
	}
	inv, _ := Invert(upd) // before Apply: Old aliases the page
	inv.Data = append([]byte(nil), inv.Data...)
	if err := Apply(p, upd); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "k1-new" {
		t.Fatalf("after update: %q", r)
	}
	if err := Apply(p, inv); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(0); string(r) != "k1" {
		t.Fatalf("after update undo: %q", r)
	}
	rm := Op{Kind: KindRemoveAt, Slot: 0, Old: []byte("k1")}
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

// TestCheckRefusesWhatApplyWould: Check must find every op Apply would
// fail on, and leave the page alone doing so.
func TestCheckRefusesWhatApplyWould(t *testing.T) {
	p := page.New(1, page.TypeHeap, 5)
	if err := Apply(p, Op{Kind: KindHeapInsert, Slot: 0, Data: []byte("0123456789")}); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), p.Bytes()...)
	huge := make([]byte, page.MaxRecordSize)
	for name, op := range map[string]Op{
		"patch of a missing slot":     {Kind: KindPatch, Slot: 4, Data: []byte("x")},
		"patch past the record":       {Kind: KindPatch, Slot: 0, Off: 8, Del: 3, Data: []byte("x")},
		"patch that empties":          {Kind: KindPatch, Slot: 0, Del: 10},
		"patch that cannot fit":       {Kind: KindPatch, Slot: 0, Off: 10, Data: huge},
		"insert into a live slot":     {Kind: KindHeapInsert, Slot: 0, Data: []byte("x")},
		"insert of nothing":           {Kind: KindHeapInsert, Slot: 1},
		"insert that cannot fit":      {Kind: KindInsertAt, Slot: 1, Data: huge},
		"insertAt past the directory": {Kind: KindInsertAt, Slot: 3, Data: []byte("x")},
		"delete of a missing slot":    {Kind: KindHeapDelete, Slot: 1},
		"remove of a missing slot":    {Kind: KindRemoveAt, Slot: 1},
		"short page image":            {Kind: KindPageImage, Data: []byte("x")},
		"no kind":                     {},
	} {
		if err := Check(p, op); err == nil {
			t.Errorf("%s: Check passed", name)
		}
		if err := Apply(p, op); err == nil {
			t.Fatalf("%s: Apply succeeded", name)
		}
	}
	if !bytes.Equal(before, p.Bytes()) {
		t.Fatal("a refused op changed the page")
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
	for _, l := range []Logical{
		{Kind: LogicalBTreeDelete, Store: 12, Key: []byte("key")},
		{Kind: LogicalBTreeInsert, Store: 12, Key: []byte("key"), Value: []byte("val")},
		{Kind: LogicalBTreeUpdate, Store: 70000, Key: bytes.Repeat([]byte("k"), 200), Off: 300, Suf: 7, Value: []byte("old range")},
		{Kind: LogicalBTreeUpdate, Store: 1, Key: []byte("k")},
		{Kind: LogicalBTreeUpdate, Store: 0xffffffff, Key: make([]byte, 1024), Off: 0xffff, Suf: 0xffff},
	} {
		enc := l.Encode()
		if !IsLogical(enc) {
			t.Fatal("IsLogical(enc) = false")
		}
		if over := len(enc) - len(l.Key) - len(l.Value); over > MaxHeader {
			t.Fatalf("%d bytes besides Key and Value, MaxHeader is %d", over, MaxHeader)
		}
		if app := l.AppendEncode([]byte("prefix")); !bytes.Equal(app, append([]byte("prefix"), enc...)) {
			t.Fatalf("AppendEncode after a prefix = %x, Encode = %x", app, enc)
		}
		got, err := DecodeLogical(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != l.Kind || got.Store != l.Store || got.Off != l.Off || got.Suf != l.Suf ||
			!bytes.Equal(got.Key, l.Key) || !bytes.Equal(got.Value, l.Value) {
			t.Fatalf("logical round trip: %+v, want %+v", got, l)
		}
	}
	// Physical payloads are not logical.
	if IsLogical(Op{Kind: KindHeapInsert}.Encode()) {
		t.Error("physical op classified as logical")
	}
	for _, b := range [][]byte{{1, 2, 3}, {logicalTag, 9, 0, 0}, {logicalTag, byte(LogicalBTreeInsert), 1, 5, 'k'}, {logicalTag, byte(LogicalBTreeUpdate), 1, 1, 'k', 3}} {
		if _, err := DecodeLogical(b); !errors.Is(err, ErrBadOp) {
			t.Errorf("DecodeLogical(%x) = %v, want ErrBadOp", b, err)
		}
	}
}

// TestQuickApplyInvertIsIdentity is the codec's contract as a property over
// random (old, new) record pairs — equal and different lengths, identical
// records, whole-record changes: the patch is minimal, the redo makes new
// out of old, the inverse makes old out of new, and both survive the log
// (encode, decode, encode again) byte for byte. A heap insert and its
// bare-slot inverse ride along.
func TestQuickApplyInvertIsIdentity(t *testing.T) {
	survives := func(op Op) (Op, bool) {
		enc := op.Encode()
		dec, err := Decode(enc)
		return dec, err == nil && bytes.Equal(dec.Encode(), enc)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, 1+rng.Intn(400))
		rng.Read(old)
		var upd []byte
		switch rng.Intn(5) {
		case 0: // the same record again: an empty middle
			upd = append(upd, old...)
		case 1: // whole-record change, any length
			upd = make([]byte, 1+rng.Intn(400))
			rng.Read(upd)
			upd[0], upd[len(upd)-1] = ^old[0], ^old[len(old)-1]
		case 2: // equal length, one range overwritten
			upd = append(upd, old...)
			i := rng.Intn(len(upd))
			rng.Read(upd[i : i+rng.Intn(len(upd)-i+1)])
		default: // a range replaced by one of another length
			i := rng.Intn(len(old) + 1)
			j := i + rng.Intn(len(old)-i+1)
			mid := make([]byte, rng.Intn(60))
			rng.Read(mid)
			if upd = append(append(append(upd, old[:i]...), mid...), old[j:]...); len(upd) == 0 {
				upd = []byte{1}
			}
		}
		p := page.New(1, page.TypeHeap, 0)
		_ = p.PlaceAt(0, []byte("a neighbour that must not change"))
		slot := uint16(1 + rng.Intn(200))
		ins := Op{Kind: KindHeapInsert, Slot: slot, Data: old}
		del, _ := Invert(ins)
		if ins, ok := survives(ins); !ok || Apply(p, ins) != nil {
			return false
		}
		rec, _ := p.Record(int(slot))
		op := Patch(slot, 0, rec, upd)
		if int(op.Del) != len(op.Old) || len(old)-len(op.Old)+len(op.Data) != len(upd) {
			return false
		}
		if n, m := len(op.Old), len(op.Data); n > 0 && m > 0 && (op.Old[0] == op.Data[0] || op.Old[n-1] == op.Data[m-1]) {
			return false // not minimal: a shared byte at an end of the middle
		} else if (n == 0 || m == 0) && n+m > 0 && len(old) == len(upd) {
			return false // equal lengths cannot differ by a pure insert or delete
		}
		inv, _ := Invert(op)
		redo, ok1 := survives(op)
		undo, ok2 := survives(inv) // encoded while Old still aliases the old record
		if !ok1 || !ok2 || redo.Old != nil || Apply(p, redo) != nil {
			return false
		}
		if r, _ := p.Record(int(slot)); !bytes.Equal(r, upd) {
			return false
		}
		if Apply(p, undo) != nil {
			return false
		}
		if r, _ := p.Record(int(slot)); !bytes.Equal(r, old) {
			return false
		}
		if del, ok := survives(del); !ok || len(del.Encode()) > 3 || Apply(p, del) != nil {
			return false
		}
		r, _ := p.Record(0)
		return p.LiveRecords() == 1 && string(r) == "a neighbour that must not change"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode feeds arbitrary bytes to both payload decoders — recovery
// hands them whatever a log record framed. Nothing may panic, whatever
// decodes must re-encode to exactly the input, and applying it to a page
// must fail cleanly or leave a page that still reads.
func FuzzDecode(f *testing.F) {
	for k := KindFormat; k <= KindPageImage; k++ {
		f.Add(Op{Kind: k, Slot: 1, Off: 2, Del: 3, PType: page.TypeHeap, Store: 9, Data: []byte("data")}.Encode())
	}
	for k := LogicalBTreeDelete; k <= LogicalBTreeUpdate; k++ {
		f.Add(Logical{Kind: k, Store: 300, Key: []byte("key"), Off: 1, Suf: 2, Value: []byte("value")}.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 'n', 'e', 'w'}) // the retired layout
	f.Fuzz(func(t *testing.T, b []byte) {
		if l, err := DecodeLogical(b); err == nil {
			if !IsLogical(b) || !bytes.Equal(l.Encode(), b) {
				t.Fatalf("logical %+v re-encodes to %x, decoded from %x", l, l.Encode(), b)
			}
		} else if !errors.Is(err, ErrBadOp) {
			t.Fatalf("DecodeLogical error %v is not ErrBadOp", err)
		}
		op, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrBadOp) {
				t.Fatalf("Decode error %v is not ErrBadOp", err)
			}
			return
		}
		if !bytes.Equal(op.Encode(), b) || op.Old != nil {
			t.Fatalf("op %+v re-encodes to %x, decoded from %x", op, op.Encode(), b)
		}
		p := page.New(1, page.TypeHeap, 0)
		_ = p.PlaceAt(1, []byte("a record for the op to hit"))
		checked := Check(p, op)
		if err := Apply(p, op); (err == nil) != (checked == nil) {
			t.Fatalf("Check = %v but Apply = %v", checked, err)
		}
		if op.Kind != KindPageImage {
			for i := 0; i < p.NumSlots(); i++ {
				_, _ = p.Record(i)
			}
			p.Compact()
		}
	})
}
