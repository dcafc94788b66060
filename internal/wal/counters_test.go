package wal

import (
	"sync"
	"testing"
	"unsafe"
)

// TestInsertCounters holds the insert counters to exactness on every
// design: the count rides on head's cache line and the bytes inserted are
// read off head, so neither may drift from what the inserters put in. The
// log reopens over a store that already holds records, so its start is
// not the header's end.
func TestInsertCounters(t *testing.T) {
	const inserters, each = 4, 1000
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			store := NewMemSegmentStore(0)
			m := New(store, Options{Design: d})
			for i := 0; i < 3; i++ {
				if _, err := m.Insert(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m = New(store, Options{Design: d, BufferSize: 1 << 16})
			defer m.Close()
			start := m.CurLSN()
			var wg sync.WaitGroup
			bytes := make([]uint64, inserters)
			for w := 0; w < inserters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var prev LSN
					for i := 0; i < each; i++ {
						rec := &Record{Type: RecUpdate, TxID: uint64(w), PrevLSN: prev, Redo: make([]byte, (i*7+w)%64)}
						lsn, err := m.Insert(rec)
						if err != nil {
							t.Error(err)
							return
						}
						bytes[w] += uint64(rec.EncodedSize())
						prev = lsn
					}
				}(w)
			}
			wg.Wait()
			var inserted uint64
			for _, b := range bytes {
				inserted += b
			}
			st := m.Stats()
			if st.Inserts != inserters*each {
				t.Errorf("Inserts = %d, want %d", st.Inserts, inserters*each)
			}
			if cur := m.CurLSN(); st.InsertedBytes != uint64(cur-start) || st.InsertedBytes != inserted {
				t.Errorf("InsertedBytes = %d, want CurLSN %v − start %v = %d, the records' %d", st.InsertedBytes, cur, start, cur-start, inserted)
			}
		})
	}
}

// span is a field's place in its struct.
type span struct {
	name      string
	off, size uintptr
}

// gap is the number of bytes between two fields that do not overlap, and
// negative when they do.
func gap(a, b span) int {
	if a.off > b.off {
		a, b = b, a
	}
	return int(b.off) - int(a.off+a.size)
}

// TestRingLogLayout guards the padding that ringLog's comment asks for.
// A heap object is only 8-byte aligned, so where the cache lines fall is
// unknown: fields that must not share a line are kept 64 bytes apart, and
// the marks an insert writes sit within one 64-byte span.
func TestRingLogLayout(t *testing.T) {
	var l ringLog
	marks := []span{
		{"head", unsafe.Offsetof(l.head), unsafe.Sizeof(l.head)},
		{"copied", unsafe.Offsetof(l.copied), unsafe.Sizeof(l.copied)},
		{"inserts", unsafe.Offsetof(l.inserts), unsafe.Sizeof(l.inserts)},
	}
	lo, hi := marks[0].off, marks[0].off+marks[0].size
	for _, m := range marks {
		lo, hi = min(lo, m.off), max(hi, m.off+m.size)
	}
	if hi-lo > 64 {
		t.Errorf("head, copied and inserts span %d bytes, more than one cache line", hi-lo)
	}
	all := span{"head..inserts", lo, hi - lo}
	for _, f := range []span{
		{"ring", unsafe.Offsetof(l.ring), unsafe.Sizeof(l.ring)},
		{"policy", unsafe.Offsetof(l.policy), unsafe.Sizeof(l.policy)},
		{"gc", unsafe.Offsetof(l.gc), unsafe.Sizeof(l.gc)},
		{"kick", unsafe.Offsetof(l.kick), unsafe.Sizeof(l.kick)},
	} {
		if g := gap(f, all); g < 64 {
			t.Errorf("read-mostly %s is %d bytes from %s, want at least 64", f.name, g, all.name)
		}
	}
}
