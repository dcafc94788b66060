package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitHeader(t *testing.T) {
	p := New(42, TypeHeap, 7)
	if p.PID() != 42 {
		t.Errorf("PID = %v", p.PID())
	}
	if p.Type() != TypeHeap {
		t.Errorf("Type = %v", p.Type())
	}
	if p.Store() != 7 {
		t.Errorf("Store = %d", p.Store())
	}
	if p.NumSlots() != 0 || p.LSN() != 0 {
		t.Error("fresh page not empty")
	}
	if p.FreeSpace() != Size-headerSize {
		t.Errorf("FreeSpace = %d", p.FreeSpace())
	}
	p.SetLSN(99)
	p.SetPID(43)
	p.SetStore(8)
	p.SetType(TypeBTree)
	if p.LSN() != 99 || p.PID() != 43 || p.Store() != 8 || p.Type() != TypeBTree {
		t.Error("header setters failed")
	}
}

func TestWrap(t *testing.T) {
	if _, err := Wrap(make([]byte, 100)); err != ErrWrongSize {
		t.Errorf("Wrap short buffer err = %v", err)
	}
	buf := make([]byte, Size)
	p, err := Wrap(buf)
	if err != nil {
		t.Fatal(err)
	}
	p.Init(1, TypeHeap, 0)
	if &p.Bytes()[0] != &buf[0] {
		t.Error("Wrap copied the buffer")
	}
}

func TestInsertAndRead(t *testing.T) {
	p := New(1, TypeHeap, 0)
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("duplicate slot numbers")
	}
	r1, err := p.Record(int(s1))
	if err != nil || string(r1) != "hello" {
		t.Fatalf("Record(s1) = %q, %v", r1, err)
	}
	r2, _ := p.Record(int(s2))
	if string(r2) != "world!" {
		t.Fatalf("Record(s2) = %q", r2)
	}
	if p.LiveRecords() != 2 {
		t.Errorf("LiveRecords = %d", p.LiveRecords())
	}
}

func TestInsertErrors(t *testing.T) {
	p := New(1, TypeHeap, 0)
	if _, err := p.Insert(nil); err != ErrEmptyInput {
		t.Errorf("Insert(nil) = %v", err)
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err != ErrTooLarge {
		t.Errorf("oversized insert = %v", err)
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Errorf("max-size insert = %v", err)
	}
	if _, err := p.Insert([]byte("x")); err != ErrPageFull {
		t.Errorf("insert into full page = %v", err)
	}
}

func TestDeleteTombstoneAndReuse(t *testing.T) {
	p := New(1, TypeHeap, 0)
	s1, _ := p.Insert([]byte("aaaa"))
	s2, _ := p.Insert([]byte("bbbb"))
	s3, _ := p.Insert([]byte("cccc"))
	if err := p.Delete(int(s2)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(int(s2)); err != ErrBadSlot {
		t.Errorf("read of deleted slot = %v", err)
	}
	if err := p.Delete(int(s2)); err != ErrBadSlot {
		t.Errorf("double delete = %v", err)
	}
	// s1 and s3 must be untouched (stable RIDs).
	if r, _ := p.Record(int(s1)); string(r) != "aaaa" {
		t.Error("s1 corrupted by delete")
	}
	if r, _ := p.Record(int(s3)); string(r) != "cccc" {
		t.Error("s3 corrupted by delete")
	}
	// New insert must reuse the tombstone.
	s4, err := p.Insert([]byte("dddd"))
	if err != nil {
		t.Fatal(err)
	}
	if s4 != s2 {
		t.Errorf("tombstone not reused: got slot %d want %d", s4, s2)
	}
}

func TestDeleteTailShrinksDirectory(t *testing.T) {
	p := New(1, TypeHeap, 0)
	s1, _ := p.Insert([]byte("a"))
	s2, _ := p.Insert([]byte("b"))
	if err := p.Delete(int(s2)); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 1 {
		t.Errorf("NumSlots = %d, want 1 after tail delete", p.NumSlots())
	}
	if err := p.Delete(int(s1)); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 0 {
		t.Errorf("NumSlots = %d, want 0", p.NumSlots())
	}
}

func TestInsertAtOrdering(t *testing.T) {
	p := New(1, TypeBTree, 0)
	// Build "b", then insert "a" before and "c" after.
	if err := p.InsertAt(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertAt(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertAt(2, []byte("c")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < p.NumSlots(); i++ {
		r, err := p.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(r))
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("order = %v", got)
	}
	if err := p.InsertAt(99, []byte("x")); err != ErrBadSlot {
		t.Errorf("InsertAt out of range = %v", err)
	}
}

func TestRemoveAtShifts(t *testing.T) {
	p := New(1, TypeBTree, 0)
	for _, s := range []string{"a", "b", "c"} {
		if err := p.InsertAt(p.NumSlots(), []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RemoveAt(1); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 2 {
		t.Fatalf("NumSlots = %d", p.NumSlots())
	}
	r0, _ := p.Record(0)
	r1, _ := p.Record(1)
	if string(r0) != "a" || string(r1) != "c" {
		t.Fatalf("after RemoveAt: %q %q", r0, r1)
	}
	if err := p.RemoveAt(5); err != ErrBadSlot {
		t.Errorf("RemoveAt out of range = %v", err)
	}
}

func TestUpdateInPlaceAndRelocate(t *testing.T) {
	p := New(1, TypeHeap, 0)
	s, _ := p.Insert([]byte("longrecord"))
	if err := p.Update(int(s), []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(int(s)); string(r) != "tiny" {
		t.Fatalf("after shrink update: %q", r)
	}
	// Grow: must relocate.
	big := bytes.Repeat([]byte("z"), 100)
	if err := p.Update(int(s), big); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Record(int(s)); !bytes.Equal(r, big) {
		t.Fatal("after grow update record mismatch")
	}
	if err := p.Update(int(s), nil); err != ErrEmptyInput {
		t.Errorf("Update(nil) = %v", err)
	}
	if err := p.Update(99, []byte("x")); err != ErrBadSlot {
		t.Errorf("Update bad slot = %v", err)
	}
}

func TestUpdateGrowExhaustsPage(t *testing.T) {
	p := New(1, TypeHeap, 0)
	s, _ := p.Insert(make([]byte, 1000))
	// Fill the rest.
	for {
		if _, err := p.Insert(make([]byte, 1000)); err != nil {
			break
		}
	}
	// Growing s beyond any possible space must fail cleanly.
	if err := p.Update(int(s), make([]byte, 7000)); err != ErrPageFull {
		t.Fatalf("grow on full page = %v", err)
	}
	// Record must still be readable after the failed update.
	if _, err := p.Record(int(s)); err != nil {
		t.Fatalf("record lost after failed update: %v", err)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	p := New(1, TypeHeap, 0)
	var slots []uint16
	for i := 0; i < 6; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	freeBefore := p.FreeSpace()
	// Delete alternating records.
	for i := 0; i < 6; i += 2 {
		if err := p.Delete(int(slots[i])); err != nil {
			t.Fatal(err)
		}
	}
	p.Compact()
	if p.FreeSpace() < freeBefore+3000 {
		t.Fatalf("FreeSpace after compact = %d, want >= %d", p.FreeSpace(), freeBefore+3000)
	}
	// Survivors intact, same slots.
	for i := 1; i < 6; i += 2 {
		r, err := p.Record(int(slots[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r, bytes.Repeat([]byte{byte('a' + i)}, 1000)) {
			t.Fatalf("record %d corrupted by compact", i)
		}
	}
}

func TestChecksum(t *testing.T) {
	p := New(9, TypeHeap, 1)
	if _, err := p.Insert([]byte("data")); err != nil {
		t.Fatal(err)
	}
	p.UpdateChecksum()
	if err := p.VerifyChecksum(); err != nil {
		t.Fatalf("fresh checksum verify: %v", err)
	}
	// Corrupt a record byte.
	p.Bytes()[Size-2] ^= 0xff
	if err := p.VerifyChecksum(); err == nil {
		t.Fatal("corruption not detected")
	}
	p.Bytes()[Size-2] ^= 0xff
	if err := p.VerifyChecksum(); err != nil {
		t.Fatalf("restored page fails verify: %v", err)
	}
	// Zero checksum means unchecksummed: passes.
	q := New(1, TypeHeap, 0)
	if err := q.VerifyChecksum(); err != nil {
		t.Fatalf("unchecksummed page fails verify: %v", err)
	}
}

func TestTypeAndRIDStrings(t *testing.T) {
	if TypeHeap.String() != "heap" || TypeBTree.String() != "btree" ||
		TypeFree.String() != "free" || TypeExtent.String() != "extent" ||
		TypeMeta.String() != "meta" || Type(77).String() != "type77" {
		t.Error("Type.String mismatch")
	}
	r := RID{Page: 3, Slot: 4}
	if r.String() != "pg3:4" {
		t.Errorf("RID.String = %q", r.String())
	}
}

// TestQuickInsertDeleteInvariant property-tests that any sequence of
// insert/delete keeps records readable and free space consistent.
func TestQuickInsertDeleteInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		p := New(1, TypeHeap, 0)
		live := map[uint16][]byte{}
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				data := bytes.Repeat([]byte{op}, int(op)%200+1)
				s, err := p.Insert(data)
				if err == ErrPageFull {
					continue
				}
				if err != nil {
					return false
				}
				live[s] = data
			} else {
				// Delete an arbitrary live slot.
				for s := range live {
					if err := p.Delete(int(s)); err != nil {
						return false
					}
					delete(live, s)
					break
				}
			}
		}
		if p.LiveRecords() != len(live) {
			return false
		}
		for s, want := range live {
			got, err := p.Record(int(s))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return p.FreeSpace() >= 0 && p.FreeSpace() <= Size-headerSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceIsUpdateOfTheSplicedRecord: on pages with neighbours, dead
// space and little room, Splice leaves exactly the bytes Update leaves when
// handed the whole new record, fails exactly when Update fails, and
// CheckSplice says which beforehand without touching the page.
func TestSpliceIsUpdateOfTheSplicedRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3000; round++ {
		p := New(1, TypeHeap, 0)
		var slots []int
		for n := 1 + rng.Intn(9); n > 0; n-- {
			rec := make([]byte, 1+rng.Intn(1500))
			rng.Read(rec)
			s, err := p.Insert(rec)
			if err != nil {
				break
			}
			slots = append(slots, int(s))
		}
		if rng.Intn(2) == 0 && len(slots) > 1 { // dead space for Update to compact away
			_ = p.Delete(slots[0])
			slots = slots[1:]
		}
		i := slots[rng.Intn(len(slots))]
		rec, _ := p.Record(i)
		off := rng.Intn(len(rec) + 1)
		del := rng.Intn(len(rec) - off + 1)
		ins := make([]byte, rng.Intn(3)*rng.Intn(2500))
		if rng.Intn(3) == 0 {
			ins = make([]byte, del)
		}
		rng.Read(ins)
		whole := append(append(append([]byte(nil), rec[:off]...), ins...), rec[off+del:]...)

		ref := &Page{b: append([]byte(nil), p.b...)}
		before := append([]byte(nil), p.b...)
		want := ref.Update(i, whole)
		checked := p.CheckSplice(i, off, del, len(ins))
		if !bytes.Equal(before, p.b) {
			t.Fatalf("round %d: CheckSplice changed the page", round)
		}
		got := p.Splice(i, off, del, ins)
		if (want == nil) != (got == nil) || (want == nil) != (checked == nil) {
			t.Fatalf("round %d: Update = %v, CheckSplice = %v, Splice = %v", round, want, checked, got)
		}
		if want != nil {
			if !bytes.Equal(before, p.b) {
				t.Fatalf("round %d: a refused Splice changed the page", round)
			}
			continue
		}
		if !bytes.Equal(ref.b, p.b) {
			t.Fatalf("round %d: Splice(off=%d del=%d ins=%d) and Update left different pages", round, off, del, len(ins))
		}
	}
	p := New(1, TypeHeap, 0)
	s, _ := p.Insert([]byte("0123456789"))
	if err := p.Splice(int(s), 8, 3, nil); err != ErrBadRange {
		t.Errorf("range past the record = %v", err)
	}
	if err := p.Splice(int(s)+1, 0, 0, []byte("x")); err != ErrBadSlot {
		t.Errorf("missing slot = %v", err)
	}
}
