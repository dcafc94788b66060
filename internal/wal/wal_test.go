package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/page"
)

func allDesigns() []Design {
	return []Design{DesignCoupled, DesignDecoupled, DesignConsolidated}
}

// encode returns the frame of r at r.LSN, as a log manager writes it.
func encode(r *Record) []byte {
	buf := make([]byte, r.EncodedSize())
	r.put(buf)
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	r := &Record{
		LSN:      1000,
		Type:     RecUpdate,
		TxID:     77,
		PrevLSN:  123,
		Page:     9,
		UndoNext: 456,
		Redo:     []byte("redo-bytes"),
		Undo:     []byte("undo"),
	}
	buf := encode(r)
	got, n, err := DecodeRecord(buf, r.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("decoded length %d, want %d", n, len(buf))
	}
	if got.LSN != r.LSN || got.Type != r.Type || got.TxID != r.TxID || got.PrevLSN != r.PrevLSN ||
		got.Page != r.Page || got.UndoNext != r.UndoNext ||
		!bytes.Equal(got.Redo, r.Redo) || !bytes.Equal(got.Undo, r.Undo) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	r := &Record{LSN: 500, Type: RecTxCommit, TxID: 1, PrevLSN: 400}
	buf := encode(r)
	// Truncated.
	if _, _, err := DecodeRecord(buf[:len(buf)-1], r.LSN); !errors.Is(err, ErrBadRecord) {
		t.Errorf("truncated decode = %v", err)
	}
	// Corrupted byte.
	bad := append([]byte(nil), buf...)
	bad[1] ^= 0x02
	if _, _, err := DecodeRecord(bad, r.LSN); !errors.Is(err, ErrBadRecord) {
		t.Errorf("corrupt decode = %v", err)
	}
	// The same bytes at an LSN where the back-link would fall before the
	// log's start.
	if _, _, err := DecodeRecord(buf, 105); !errors.Is(err, errBadLink) {
		t.Errorf("decode with a back-link before the log start = %v", err)
	}
}

// TestRecordQuickRoundTrip encodes random records at random LSNs up to
// 2^40, each back-link drawn as none, the longest one (to the log's
// start) or anything between, and decodes them at the same LSN.
func TestRecordQuickRoundTrip(t *testing.T) {
	link := func(at LSN, pick uint8, x uint64) LSN {
		switch pick % 3 {
		case 0:
			return NullLSN
		case 1:
			return logHeaderSize // the widest distance at at
		default:
			return logHeaderSize + LSN(x%uint64(at-logHeaderSize))
		}
	}
	f := func(txid, pid, lsn, prev, undoNext uint64, picks [2]uint8, redo, undo []byte, typ uint8) bool {
		at := LSN(logHeaderSize + 1 + lsn%(1<<40))
		r := &Record{
			LSN: at, Type: RecType(typ%uint8(RecCkptEnd) + 1), TxID: txid, PrevLSN: link(at, picks[0], prev),
			Page: page.ID(pid), UndoNext: link(at, picks[1], undoNext), Redo: redo, Undo: undo,
		}
		buf := encode(r)
		if len(buf) > r.maxSize() {
			return false
		}
		got, n, err := DecodeRecord(buf, at)
		if err != nil || n != len(buf) {
			return false
		}
		return got.LSN == at && got.Type == r.Type && got.TxID == r.TxID && got.PrevLSN == r.PrevLSN &&
			got.Page == r.Page && got.UndoNext == r.UndoNext && bytes.Equal(got.Redo, r.Redo) && bytes.Equal(got.Undo, r.Undo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func testManagerBasics(t *testing.T, d Design) {
	store := NewMemSegmentStore(0)
	m := New(store, Options{Design: d, BufferSize: 1 << 16})
	defer m.Close()

	var lsns []LSN
	for i := 0; i < 100; i++ {
		rec := &Record{Type: RecUpdate, TxID: uint64(i), Redo: []byte("payload")}
		lsn, err := m.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn == NullLSN {
			t.Fatal("got null LSN")
		}
		if len(lsns) > 0 && lsn <= lsns[len(lsns)-1] {
			t.Fatalf("LSNs not increasing: %v then %v", lsns[len(lsns)-1], lsn)
		}
		lsns = append(lsns, lsn)
	}
	// Nothing necessarily durable yet; flush all.
	if err := m.Flush(m.CurLSN()); err != nil {
		t.Fatal(err)
	}
	if m.DurableLSN() < lsns[len(lsns)-1] {
		t.Fatalf("durable %v < last insert %v", m.DurableLSN(), lsns[len(lsns)-1])
	}
	// Scan back.
	sc := NewScanner(store, NullLSN)
	i := 0
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN != lsns[i] {
			t.Fatalf("record %d LSN = %v, want %v", i, rec.LSN, lsns[i])
		}
		if rec.TxID != uint64(i) || string(rec.Redo) != "payload" {
			t.Fatalf("record %d content mismatch: %+v", i, rec)
		}
		i++
	}
	if i != 100 {
		t.Fatalf("scanned %d records, want 100", i)
	}
	// Stats sane.
	st := m.Stats()
	if st.Inserts != 100 || st.InsertedBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestManagerBasics(t *testing.T) {
	for _, d := range allDesigns() {
		d := d
		t.Run(d.String(), func(t *testing.T) { testManagerBasics(t, d) })
	}
}

func testManagerConcurrent(t *testing.T, d Design) {
	store := NewMemSegmentStore(0)
	m := New(store, Options{Design: d, BufferSize: 1 << 14}) // small: forces wrap + waits
	defer m.Close()

	const g, n = 8, 300
	var wg sync.WaitGroup
	var mu sync.Mutex
	all := make(map[LSN]uint64)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				id := uint64(w*n + i)
				rec := &Record{Type: RecUpdate, TxID: id, Redo: bytes.Repeat([]byte{byte(w)}, 16+i%64)}
				lsn, err := m.Insert(rec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if _, dup := all[lsn]; dup {
					t.Errorf("duplicate LSN %v", lsn)
				}
				all[lsn] = id
				mu.Unlock()
				if i%50 == 0 {
					if err := m.Flush(lsn + 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.Flush(m.CurLSN()); err != nil {
		t.Fatal(err)
	}
	// Scan: every record must be intact and match what we inserted.
	sc := NewScanner(store, NullLSN)
	count := 0
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want, ok := all[rec.LSN]
		if !ok {
			t.Fatalf("scanned unknown LSN %v", rec.LSN)
		}
		if rec.TxID != want {
			t.Fatalf("LSN %v txid = %d, want %d", rec.LSN, rec.TxID, want)
		}
		count++
	}
	if count != g*n {
		t.Fatalf("scanned %d records, want %d", count, g*n)
	}
}

func TestManagerConcurrent(t *testing.T) {
	for _, d := range allDesigns() {
		d := d
		t.Run(d.String(), func(t *testing.T) { testManagerConcurrent(t, d) })
	}
}

func TestCrashLosesUnflushedTail(t *testing.T) {
	for _, d := range allDesigns() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			store := NewMemSegmentStore(0)
			m := New(store, Options{Design: d, BufferSize: 1 << 16})
			var durableLSN LSN
			for i := 0; i < 50; i++ {
				rec := &Record{Type: RecUpdate, TxID: uint64(i), Redo: []byte("x")}
				lsn, err := m.Insert(rec)
				if err != nil {
					t.Fatal(err)
				}
				if i == 29 {
					if err := m.Flush(lsn + LSN(rec.EncodedSize())); err != nil {
						t.Fatal(err)
					}
					durableLSN = m.DurableLSN()
				}
			}
			// Crash without closing: drop the volatile tail.
			store.Crash()
			sc := NewScanner(store, NullLSN)
			var got []uint64
			for {
				rec, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rec.TxID)
			}
			if len(got) < 30 {
				t.Fatalf("only %d records survived; at least 30 were durable (durable=%v)", len(got), durableLSN)
			}
			for i, id := range got {
				if id != uint64(i) {
					t.Fatalf("record %d has txid %d", i, id)
				}
			}
			m.Close()
		})
	}
}

func TestReadRecordAt(t *testing.T) {
	store := NewMemSegmentStore(0)
	m := New(store, Options{Design: DesignConsolidated})
	defer m.Close()
	rec := &Record{Type: RecUpdate, TxID: 5, Redo: []byte("abc")}
	lsn, err := m.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(m.CurLSN()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecordAt(store, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if got.TxID != 5 || string(got.Redo) != "abc" || got.LSN != lsn {
		t.Fatalf("ReadRecordAt = %+v", got)
	}
	if _, err := ReadRecordAt(store, 3); err == nil {
		t.Error("ReadRecordAt before log start succeeded")
	}
}

func TestInsertAfterClose(t *testing.T) {
	for _, d := range allDesigns() {
		m := New(NewMemSegmentStore(0), Options{Design: d})
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Insert(&Record{Type: RecUpdate}); err != ErrLogClosed {
			t.Errorf("%v: insert after close = %v", d, err)
		}
		// Double close is fine.
		if err := m.Close(); err != nil {
			t.Errorf("%v: double close = %v", d, err)
		}
	}
}

// TestInsertDurablePastHead: an insert reads the head and then the durable
// mark, so under concurrent inserts and flushes the mark it sees can be
// past its (stale) head. The consolidated insert used to take the wrapped
// unsigned distance for a full buffer and wait for a durable LSN near 2^64
// — found as a hang of TestPlpCrossPartitionStress under -race; the
// decoupled insert had the same unguarded subtraction against its cached
// tail. There is one space check now, so every design is held to it.
// Putting the mark ahead of the head reproduces what the stale read sees.
func TestInsertDurablePastHead(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			l := newRingLog(NewMemSegmentStore(0), 1<<16, d)
			defer l.Close()
			l.gc.advance(LSN(l.head.Load() + 4096))
			if p, ok := l.policy.(*decoupled); ok {
				p.cachedTail = uint64(l.gc.get()) // the copy it checks first
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Insert(&Record{Type: RecUpdate, Redo: make([]byte, 64)})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("insert waits on a buffer that is not full")
			}
		})
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	for _, d := range allDesigns() {
		m := New(NewMemSegmentStore(0), Options{Design: d, BufferSize: 4096})
		rec := &Record{Type: RecUpdate, Redo: make([]byte, 8192)}
		if _, err := m.Insert(rec); err != ErrRecordTooLarge {
			t.Errorf("%v: oversized insert = %v", d, err)
		}
		m.Close()
	}
	// A payload over MaxPayload is refused before buffer space is
	// reserved, even when the buffer could hold it: the log must not be
	// left with a hole where the record would have been.
	for _, d := range allDesigns() {
		store := NewMemSegmentStore(0)
		m := New(store, Options{Design: d, BufferSize: 4 << 20})
		if _, err := m.Insert(&Record{Type: RecUpdate, Redo: make([]byte, MaxPayload+1)}); err != ErrRecordTooLarge {
			t.Errorf("%v: insert over MaxPayload = %v", d, err)
		}
		// So is a back-link that no record at the head could store: one at
		// or past the head, or one before the log's start.
		for _, link := range []LSN{m.CurLSN(), m.CurLSN() + 1, logHeaderSize - 1} {
			if _, err := m.InsertCLR(&Record{Type: RecCLR, UndoNext: link}); !errors.Is(err, ErrInvalidLSN) {
				t.Errorf("%v: insert with undo-next %v at %v = %v", d, link, m.CurLSN(), err)
			}
		}
		lsn, err := m.Insert(&Record{Type: RecUpdate, TxID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != logHeaderSize {
			t.Errorf("%v: record after a refused one has %v, want the first LSN", d, lsn)
		}
		m.Close()
	}
}

// TestMemSegFileRegrowZeroFills checks the zero-fill rule of the memory
// backend: truncating keeps the old bytes in the buffer's capacity, and a
// later write past the new end must not make them readable again — the
// hole reads back as zeros, as it would from a file.
func TestMemSegFileRegrowZeroFills(t *testing.T) {
	f, err := newMemSegBackend().create(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0xAB}, 100)
	for i := int64(0); i < 3; i++ {
		if err := f.writeAt(rec, 100+i*100); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.truncate(250); err != nil { // into the middle of the second record
		t.Fatal(err)
	}
	if err := f.writeAt(rec[:10], 390); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 150)
	if _, err := f.readAt(got, 250); err != nil {
		t.Fatal(err)
	}
	if want := append(make([]byte, 140), rec[:10]...); !bytes.Equal(got, want) {
		t.Fatalf("bytes [250,400) after truncate(250) and a write at 390 = %x, want 140 zeros and the write", got)
	}
	if _, err := f.readAt(got[:50], 200); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:50], rec[:50]) {
		t.Fatal("bytes below the truncation point changed")
	}
}

func TestCheckpointDataRoundTrip(t *testing.T) {
	c := &CheckpointData{
		BeginLSN: 99,
		Txs: []TxInfo{
			{TxID: 1, LastLSN: 10, UndoNext: 5},
			{TxID: 2, LastLSN: 20, UndoNext: 20},
		},
		Dirty: []DirtyInfo{{Page: 7, RecLSN: 3}, {Page: 8, RecLSN: 4}},
	}
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.BeginLSN != 99 || len(got.Txs) != 2 || len(got.Dirty) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.Txs[1].TxID != 2 || got.Txs[1].LastLSN != 20 {
		t.Fatalf("tx mismatch: %+v", got.Txs)
	}
	if got.Dirty[0].Page != 7 || got.Dirty[0].RecLSN != 3 {
		t.Fatalf("dirty mismatch: %+v", got.Dirty)
	}
	// Truncated payloads.
	if _, err := DecodeCheckpoint(nil); err == nil {
		t.Error("nil payload decoded")
	}
	if _, err := DecodeCheckpoint(c.Encode()[:30]); err == nil {
		t.Error("truncated payload decoded")
	}
	if _, err := DecodeCheckpoint(append(c.Encode(), 0)); err == nil {
		t.Error("payload with a trailing byte decoded")
	}
	// Counts whose byte sizes overflow back to the payload's length, and
	// a negative count, are refused, not indexed.
	for _, counts := range [][2]uint64{{1 << 62, 0}, {0, 1 << 60}, {1 << 63, 0}, {^uint64(0), 1}} {
		b := make([]byte, 24)
		binary.LittleEndian.PutUint64(b[8:], counts[0])
		binary.LittleEndian.PutUint64(b[16:], counts[1])
		if _, err := DecodeCheckpoint(b); !errors.Is(err, ErrBadRecord) {
			t.Errorf("counts %d/%d in a 24-byte payload: %v", counts[0], counts[1], err)
		}
	}
	// Empty checkpoint.
	empty := &CheckpointData{}
	got2, err := DecodeCheckpoint(empty.Encode())
	if err != nil || len(got2.Txs) != 0 || len(got2.Dirty) != 0 {
		t.Errorf("empty checkpoint round trip: %+v, %v", got2, err)
	}
}

// TestSegmentStoreFilePersistence is what a log in a directory owes its
// owner: what was written and flushed, and the master, are there after a
// reopen; the log goes on past its old tail; and a power cut takes only
// what was not synced.
func TestSegmentStoreFilePersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	store, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if store.SegmentBytes() != DefaultSegmentBytes {
		t.Fatalf("segment size 0 opened %d-byte segments, want the default", store.SegmentBytes())
	}
	m := New(store, Options{Design: DesignDecoupled})
	var lastLSN LSN
	for i := 0; i < 10; i++ {
		lsn, err := m.Insert(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	if err := m.Flush(m.CurLSN()); err != nil {
		t.Fatal(err)
	}
	if err := store.SetMaster(lastLSN); err != nil {
		t.Fatal(err)
	}
	m.Close()
	store.Close()

	store2, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	master, err := store2.Master()
	if err != nil || master != lastLSN {
		t.Fatalf("master = %v, %v; want %v", master, err, lastLSN)
	}
	if got := scanInOrder(t, store2); got != 10 {
		t.Fatalf("reopened log has %d records, want 10", got)
	}
	// A new manager must continue appending after the existing tail.
	m2 := New(store2, Options{Design: DesignCoupled})
	lsn, err := m2.Insert(testRecord(10))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= lastLSN {
		t.Fatalf("appended LSN %v not beyond old tail %v", lsn, lastLSN)
	}
	if err := m2.Flush(m2.CurLSN()); err != nil {
		t.Fatal(err)
	}
	// The device takes a twelfth record and the power goes before a sync.
	if err := store2.WriteAt(encode(testRecord(11)), store2.Size()); err != nil {
		t.Fatal(err)
	}
	m2.Kill()
	store2.Crash()
	if master, err := store2.Master(); err != nil || master != lastLSN {
		t.Fatalf("master after the crash = %v, %v; want %v", master, err, lastLSN)
	}
	if got := scanInOrder(t, store2); got != 11 {
		t.Fatalf("crashed log has %d records, want the 11 that were synced", got)
	}
	if st, err := os.Stat(filepath.Join(dir, segFileName(0))); err != nil || st.Size() != segHeaderSize+store2.Size() {
		t.Fatalf("segment file after the crash: %v, %v; want %d bytes", st, err, segHeaderSize+store2.Size())
	}
}

func TestGroupCommitSharedFlush(t *testing.T) {
	store := NewMemSegmentStore(0)
	m := New(store, Options{Design: DesignConsolidated})
	defer m.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lsn, err := m.Insert(&Record{Type: RecTxCommit, TxID: uint64(w)})
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Flush(lsn + 1); err != nil {
				t.Error(err)
				return
			}
			if m.DurableLSN() <= lsn {
				t.Errorf("flush returned but durable %v <= %v", m.DurableLSN(), lsn)
			}
		}(w)
	}
	wg.Wait()
	// Group commit should have needed far fewer store flushes than commits,
	// but at minimum it must have flushed at least once.
	if m.Stats().Flushes == 0 {
		t.Error("no flushes recorded")
	}
}

func TestDesignString(t *testing.T) {
	if DesignCoupled.String() != "coupled" || DesignDecoupled.String() != "decoupled" ||
		DesignConsolidated.String() != "consolidated" || Design(9).String() != "unknown" {
		t.Error("Design.String mismatch")
	}
	for _, rt := range []RecType{RecUpdate, RecCLR, RecTxBegin, RecTxCommit, RecTxAbort, RecTxEnd, RecCkptBegin, RecCkptEnd} {
		if rt.String() == "" || !rt.valid() {
			t.Errorf("record type %d: %q, valid %v", rt, rt, rt.valid())
		}
	}
	// The retired page-format type is no longer one the decoder takes.
	if rt := RecCkptEnd + 1; rt.valid() || rt.String() != "rec9" {
		t.Errorf("record type 9: %q, valid %v", rt, rt.valid())
	}
	if LSN(5).String() != "lsn:5" {
		t.Error("LSN.String mismatch")
	}
}
