package wal

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/sync2"
)

// allocsIn counts the objects f allocates in one call. (AllocsPerRun
// over many runs rounds an average down, which hides amortized growth.)
func allocsIn(f func()) float64 { return testing.AllocsPerRun(1, f) }

// TestSegmentStoreWriteAtNoAlloc: a memory segment is created with its
// whole extent, so a write inside a live segment copies into place and
// allocates nothing.
func TestSegmentStoreWriteAtNoAlloc(t *testing.T) {
	s := NewMemSegmentStore(1 << 20)
	chunk := make([]byte, 4096)
	off := s.Size()
	allocs := allocsIn(func() {
		for i := 0; i < 100; i++ {
			if err := s.WriteAt(chunk, off); err != nil {
				t.Fatal(err)
			}
			off += int64(len(chunk))
		}
	})
	if first, last := s.Segments(); first != last {
		t.Fatalf("test wrote past its segment: segments [%d, %d]", first, last)
	}
	if allocs != 0 {
		t.Fatalf("WriteAt inside a live segment allocates %.0f objects in 100 writes, want 0", allocs)
	}
}

// TestInsertNoAlloc: the record is encoded straight into the reserved
// ring range — no scratch buffer, whatever the record's size and whatever
// the design holds while it copies — and the drain behind it writes into
// a preallocated segment. The ring is large enough that no reservation
// wraps during the run.
func TestInsertNoAlloc(t *testing.T) {
	// The decoupled design's MCS lock draws its queue nodes from a
	// sync.Pool, which drops a share of what it is given when the race
	// detector is on. Those are not the log path's allocations.
	var mcs sync2.MCSLock
	lossyPool := allocsIn(func() {
		for i := 0; i < 100; i++ {
			mcs.Lock()
			mcs.Unlock()
		}
	}) != 0
	for _, d := range allDesigns() {
		if d == DesignDecoupled && lossyPool {
			continue
		}
		for _, payload := range []int{200, 4096} {
			l := New(NewMemSegmentStore(8<<20), Options{Design: d, BufferSize: 1 << 20})
			rec := &Record{Type: RecUpdate, TxID: 7, Page: 3, Redo: make([]byte, payload/2), Undo: make([]byte, payload/2)}
			allocs := allocsIn(func() {
				for i := 0; i < 100; i++ {
					if _, err := l.Insert(rec); err != nil {
						t.Fatal(err)
					}
				}
			})
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v: 100 inserts of a %d-byte payload allocate %.0f objects, want 0", d, payload, allocs)
			}
		}
	}
}

// BenchmarkSegmentStoreAppend appends to a memory segment store in
// flusher-sized writes, rolling through segments as it goes (run with
// -benchmem: the only allocations are the segments themselves).
func BenchmarkSegmentStoreAppend(b *testing.B) {
	for _, size := range []int{64, 5 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("write=%d", size), func(b *testing.B) {
			s := NewMemSegmentStore(8 << 20)
			chunk := make([]byte, size)
			off := s.Size()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.WriteAt(chunk, off); err != nil {
					b.Fatal(err)
				}
				off += int64(size)
				if off%(64<<20) < int64(size) {
					// Keep the footprint bounded: what a checkpoint does.
					if err := s.Flush(off); err != nil {
						b.Fatal(err)
					}
					if _, err := s.ArchiveBelow(LSN(off)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestScannerNextAllocs: the recovery read path allocates one buffer per
// record and the Record itself. The header is read into the scanner's own
// scratch, and the payloads point into the buffer instead of being copied
// out of it.
func TestScannerNextAllocs(t *testing.T) {
	store := NewMemSegmentStore(MinSegmentBytes)
	m := New(store, Options{Design: DesignCoupled})
	const records = 200
	var prev LSN
	for i := 0; i < records; i++ {
		rec := &Record{Type: RecUpdate, TxID: 3, PrevLSN: prev, Page: 9, Redo: make([]byte, 20+i%90), Undo: make([]byte, i%30)}
		if i%3 == 2 {
			rec.Type, rec.UndoNext, rec.Undo = RecCLR, prev, nil
		}
		lsn, err := m.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		prev = lsn
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if first, last := store.Segments(); first == last {
		t.Fatal("the log fits one segment; the scan crosses no boundary")
	}
	n := 0
	allocs := allocsIn(func() {
		sc := NewScanner(store, NullLSN)
		for n = 0; ; n++ {
			if _, err := sc.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if n != records {
		t.Fatalf("scanned %d records, want %d", n, records)
	}
	if perRecord := (allocs - 1) / records; perRecord > 2 { // 1: the Scanner
		t.Fatalf("Scanner.Next allocates %.2f objects per record, want at most 2", perRecord)
	}
}
