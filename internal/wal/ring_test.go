package wal

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestQuickRingCopyRoundTrip property-tests the circular-buffer copy used
// by the decoupled and consolidated logs: any record written at any offset
// (including wrap-around) must read back intact.
func TestQuickRingCopyRoundTrip(t *testing.T) {
	ring := make([]byte, 256)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 || len(data) > len(ring) {
			return true
		}
		copyToRing(ring, LSN(off), data)
		// Read back with the same modular arithmetic.
		got := make([]byte, len(data))
		pos := int(uint64(off) % uint64(len(ring)))
		n := copy(got, ring[pos:])
		if n < len(data) {
			copy(got[n:], ring)
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRingWrapExactBoundary pins the exact-wrap case (record ends at the
// ring's end) and the full-wrap case (record starts at the last byte).
func TestRingWrapExactBoundary(t *testing.T) {
	ring := make([]byte, 64)
	data := []byte("0123456789")
	// Ends exactly at the boundary.
	copyToRing(ring, LSN(64-10), data)
	if !bytes.Equal(ring[54:64], data) {
		t.Fatal("exact-boundary write corrupted")
	}
	// Starts at the last byte: 1 byte at the end, 9 at the start.
	copyToRing(ring, 63, data)
	if ring[63] != '0' || !bytes.Equal(ring[0:9], data[1:]) {
		t.Fatal("wrap-around write corrupted")
	}
}

// TestRingStraddlingRecord: a record whose reservation straddles the
// ring's end is the one case not encoded in place. Records that do not
// divide the ring force it; every record must scan back (the scanner
// checks each CRC) with the payload it was inserted with.
func TestRingStraddlingRecord(t *testing.T) {
	const ringSize, records = 4096, 60
	for _, d := range []Design{DesignDecoupled, DesignConsolidated} {
		store := NewMemStore()
		m := New(store, Options{Design: d, BufferSize: ringSize})
		payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 300+i) }
		straddled := 0
		for i := 0; i < records; i++ {
			rec := &Record{Type: RecUpdate, TxID: uint64(i), Redo: payload(i), Undo: payload(i)[:7]}
			lsn, err := m.Insert(rec)
			if err != nil {
				t.Fatalf("%v: insert %d: %v", d, i, err)
			}
			if int(lsn)%ringSize+rec.EncodedSize() > ringSize {
				straddled++
			}
		}
		if err := m.Flush(m.CurLSN()); err != nil {
			t.Fatal(err)
		}
		if straddled == 0 {
			t.Fatalf("%v: no reservation straddled the ring's end", d)
		}
		sc := NewScanner(store, NullLSN)
		for i := 0; i < records; i++ {
			rec, err := sc.Next()
			if err != nil {
				t.Fatalf("%v: record %d: %v", d, i, err)
			}
			if rec.TxID != uint64(i) || !bytes.Equal(rec.Redo, payload(i)) || !bytes.Equal(rec.Undo, payload(i)[:7]) {
				t.Fatalf("%v: record %d came back as txid %d, %d+%d payload bytes", d, i, rec.TxID, len(rec.Redo), len(rec.Undo))
			}
		}
		m.Close()
	}
}

// TestInsertWaitsWhenBufferFull forces the decoupled log's buffer-full
// path: a tiny ring with many inserts must record insert waits yet lose
// nothing.
func TestInsertWaitsWhenBufferFull(t *testing.T) {
	store := NewMemStore()
	m := New(store, Options{Design: DesignDecoupled, BufferSize: 2048})
	payload := make([]byte, 128)
	for i := 0; i < 200; i++ {
		if _, err := m.Insert(&Record{Type: RecUpdate, TxID: uint64(i), Redo: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(m.CurLSN()); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Inserts != 200 {
		t.Fatalf("inserts = %d", st.Inserts)
	}
	if st.InsertWaits == 0 {
		t.Error("tiny buffer never filled — buffer-full path untested")
	}
	// All records intact.
	sc := NewScanner(store, NullLSN)
	count := 0
	for {
		rec, err := sc.Next()
		if err != nil {
			break
		}
		if rec.TxID != uint64(count) {
			t.Fatalf("record %d has txid %d", count, rec.TxID)
		}
		count++
	}
	if count != 200 {
		t.Fatalf("scanned %d records, want 200", count)
	}
	m.Close()
}
