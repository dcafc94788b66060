package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestQuickRingCopyRoundTrip property-tests the circular-buffer copy
// behind putInRing's straddle path: any record written at any offset
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
	for _, d := range allDesigns() {
		store := NewMemSegmentStore(0)
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

// TestInsertWaitsWhenBufferFull forces the buffer-full path: a tiny ring
// with many inserts must record insert waits (coupled counts the flushes
// it runs inline there) yet lose nothing.
func TestInsertWaitsWhenBufferFull(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			store := NewMemSegmentStore(0)
			m := New(store, Options{Design: d, BufferSize: 2048})
			defer m.Close()
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
			if got := scanInOrder(t, store); got != 200 {
				t.Fatalf("scanned %d records, want 200", got)
			}
		})
	}
}

// scanInOrder scans store from its start to the end of the log, checks
// that the records carry the transaction ids 0, 1, 2, … every caller
// assigns, and returns how many there are.
func scanInOrder(t *testing.T, store Store) int {
	t.Helper()
	sc := NewScanner(store, NullLSN)
	for n := 0; ; n++ {
		rec, err := sc.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.TxID != uint64(n) {
			t.Fatalf("record %d has txid %d", n, rec.TxID)
		}
	}
}

// flakyStore fails its next failFlushes Flush calls with errFlakyDevice
// and then works again — the device that "heals", which the log must not
// believe.
type flakyStore struct {
	Store
	failFlushes atomic.Int64
}

var errFlakyDevice = errors.New("injected log device failure")

func (s *flakyStore) Flush(upTo int64) error {
	if s.failFlushes.Add(-1) >= 0 {
		return errFlakyDevice
	}
	return s.Store.Flush(upTo)
}

// TestDeviceFailureIsTerminal holds all three designs to the one failure
// rule: the first failed store flush is latched; from then on the durable
// mark never moves, however healthy the store looks, and the subscription
// that met the failure, every later Flush and Subscribe, an insert that
// needs room and Close all return that error.
func TestDeviceFailureIsTerminal(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			store := &flakyStore{Store: NewMemSegmentStore(0)}
			m := New(store, Options{Design: d, BufferSize: 2048})
			insert := func() error {
				_, err := m.Insert(&Record{Type: RecUpdate, Redo: make([]byte, 64)})
				return err
			}
			if err := insert(); err != nil {
				t.Fatal(err)
			}
			store.failFlushes.Store(1) // fails once, then heals
			if err := await(t, m.Subscribe(m.CurLSN())); !errors.Is(err, errFlakyDevice) {
				t.Fatalf("subscription on a failing device = %v, want the device error", err)
			}
			durable, stored := m.DurableLSN(), store.DurableSize()

			if err := insert(); err != nil {
				t.Fatalf("insert that fits the ring after the failure: %v", err)
			}
			for i := 0; i < 3; i++ {
				if err := m.Flush(m.CurLSN()); !errors.Is(err, errFlakyDevice) {
					t.Errorf("flush %d after the failure = %v, want the device error", i, err)
				}
			}
			if err := <-m.Subscribe(m.CurLSN()); !errors.Is(err, errFlakyDevice) {
				t.Errorf("subscribe after the failure = %v, want the device error", err)
			}
			var err error
			for i := 0; i < 64 && err == nil; i++ { // 64 × 100 bytes overruns the 2 KiB ring
				err = insert()
			}
			if !errors.Is(err, errFlakyDevice) {
				t.Errorf("insert into a full ring after the failure = %v, want the device error", err)
			}
			time.Sleep(50 * time.Millisecond) // a background drain would have run by now
			if got := m.DurableLSN(); got != durable {
				t.Errorf("durable mark moved %v -> %v after the device failed", durable, got)
			}
			if got := store.DurableSize(); got != stored {
				t.Errorf("store synced %d -> %d after the device failed", stored, got)
			}
			if err := m.Close(); !errors.Is(err, errFlakyDevice) {
				t.Errorf("close = %v, want the device error", err)
			}
		})
	}
}

// await receives a subscription's verdict, or fails the test: nobody in
// these tests calls Flush for a subscriber, so one that is never served
// would hang.
func await(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never resolved")
		return nil
	}
}

// TestSubscription holds Subscribe to its contract on all three designs.
// No row calls Flush: a subscription gets its own drain going.
func TestSubscription(t *testing.T) {
	const far = 1 << 30 // a target no insert of these tests reaches
	rows := []struct {
		name string
		run  func(t *testing.T, l *ringLog)
	}{
		{"alone", func(t *testing.T, l *ringLog) {
			defer l.Close()
			lsn, err := l.Insert(testRecord(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := await(t, l.Subscribe(l.CurLSN())); err != nil {
				t.Fatal(err)
			}
			if l.DurableLSN() <= lsn {
				t.Fatalf("resolved with durable %v, record at %v", l.DurableLSN(), lsn)
			}
			if err := await(t, l.Subscribe(l.CurLSN())); err != nil { // already durable
				t.Fatal(err)
			}
		}},
		// CurLSN is the reservation head: with inserters running, a target
		// is past copied whenever a neighbour has reserved and not yet
		// published, and the drain the subscriber asked for can run first.
		{"past-copied", func(t *testing.T, l *ringLog) {
			defer l.Close()
			const workers, commits = 8, 100
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func() {
					for i := 0; i < commits; i++ {
						if _, err := l.Insert(testRecord(i)); err != nil {
							errs <- err
							return
						}
						select {
						case err := <-l.Subscribe(l.CurLSN()):
							if err != nil {
								errs <- err
								return
							}
						case <-time.After(10 * time.Second):
							errs <- errors.New("subscription never resolved")
							return
						}
					}
					errs <- nil
				}()
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			l.gc.mu.Lock()
			subs := len(l.gc.subs)
			l.gc.mu.Unlock()
			if subs != 0 {
				t.Fatalf("%d subscriptions listed with nobody waiting", subs)
			}
		}},
		// The same lost wake-up with the order forced: the target is the end
		// of a record that is inserted only after the subscriber's drain has
		// run and found nothing. Coupled drains inline and has no flusher to
		// wake, and no target past copied either: its head moves under the
		// mutex the drain holds.
		{"ahead-of-insert", func(t *testing.T, l *ringLog) {
			defer l.Close()
			if l.kick == nil {
				t.Skip("no background flusher")
			}
			rec := testRecord(0)
			ch := l.Subscribe(l.CurLSN() + LSN(rec.EncodedSize()))
			l.drain()
			if _, err := l.Insert(rec); err != nil {
				t.Fatal(err)
			}
			if err := await(t, ch); err != nil {
				t.Fatal(err)
			}
		}},
		{"close", func(t *testing.T, l *ringLog) {
			if _, err := l.Insert(testRecord(0)); err != nil {
				t.Fatal(err)
			}
			reached, unreached := l.Subscribe(l.CurLSN()), l.Subscribe(far)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := await(t, reached); err != nil {
				t.Errorf("close resolved a subscription it hardened with %v", err)
			}
			if err := await(t, unreached); err != ErrLogClosed {
				t.Errorf("close resolved a subscription past the log's end with %v, want ErrLogClosed", err)
			}
			if err := await(t, l.Subscribe(far)); err != ErrLogClosed {
				t.Errorf("subscribe after close = %v, want ErrLogClosed", err)
			}
		}},
		{"kill", func(t *testing.T, l *ringLog) {
			ch := l.Subscribe(far)
			l.Kill()
			if err := await(t, ch); err != ErrLogClosed {
				t.Errorf("kill resolved a subscription with %v, want ErrLogClosed", err)
			}
		}},
		// A subscriber that stopped listening (a cancelled commit wait) costs
		// one buffered send; the list recovers.
		{"abandoned", func(t *testing.T, l *ringLog) {
			defer l.Close()
			for i := 0; i < 3; i++ {
				if _, err := l.Insert(testRecord(i)); err != nil {
					t.Fatal(err)
				}
				l.Subscribe(l.CurLSN()) // never received from
			}
			if _, err := l.Insert(testRecord(3)); err != nil {
				t.Fatal(err)
			}
			if err := await(t, l.Subscribe(l.CurLSN())); err != nil {
				t.Fatal(err)
			}
			l.gc.mu.Lock()
			subs := len(l.gc.subs)
			l.gc.mu.Unlock()
			if subs != 0 {
				t.Fatalf("%d subscriptions listed after all resolved", subs)
			}
		}},
	}
	for _, row := range rows {
		for _, d := range allDesigns() {
			t.Run(row.name+"/"+d.String(), func(t *testing.T) {
				row.run(t, newRingLog(NewMemSegmentStore(0), 1<<16, d))
			})
		}
	}
}

// gateStore parks every Flush until released.
type gateStore struct {
	Store
	entered chan struct{} // a Flush has arrived at the gate
	release chan struct{} // closed to open the gate
}

func (s *gateStore) Flush(upTo int64) error {
	s.entered <- struct{}{}
	<-s.release
	return s.Store.Flush(upTo)
}

// TestInsertVersusSlowFlush checks the property each rung is named for,
// without a clock. With a Flush parked inside the store, an insert that
// fits the ring completes on decoupled and consolidated — "fast inserts
// never wait on slow flushes" (§6.2.2) — and on coupled cannot: the flush
// holds the one mutex every insert needs, so the insert returns only after
// the gate opens.
func TestInsertVersusSlowFlush(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			store := &gateStore{Store: NewMemSegmentStore(0), entered: make(chan struct{}, 4), release: make(chan struct{})}
			l := newRingLog(store, 1<<16, d)
			rec := func() *Record { return &Record{Type: RecUpdate, Redo: make([]byte, 64)} }
			if _, err := l.Insert(rec()); err != nil {
				t.Fatal(err)
			}
			flushed := make(chan error, 1)
			go func() { flushed <- l.Flush(l.CurLSN()) }()
			<-store.entered

			var gateOpen atomic.Bool
			inserted := make(chan error, 1)
			go func() {
				_, err := l.Insert(rec())
				if err == nil && d == DesignCoupled && !gateOpen.Load() {
					err = errors.New("coupled insert completed while a flush held the log mutex")
				}
				inserted <- err
			}()
			if p, ok := l.policy.(*coupled); ok {
				if p.mu.TryLock() {
					t.Fatal("coupled: the log mutex is free while a flush is in the store")
				}
			} else if err := <-inserted; err != nil { // hangs here if the insert waits for the flush
				t.Fatal(err)
			}
			gateOpen.Store(true)
			close(store.release)
			if d == DesignCoupled {
				if err := <-inserted; err != nil {
					t.Fatal(err)
				}
			}
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReopenSeedsMarks opens every design over stores in the states a
// restart finds them in. The marks must come up ordered (durable ≤ head),
// the log must continue exactly at the store's end, and bytes the store
// already holds — synced or not — must never be rewritten from the ring,
// which does not have them.
func TestReopenSeedsMarks(t *testing.T) {
	// Each state is reached from a log of ten synced records followed by
	// two the device took but never synced; survivors is how many of the
	// twelve the reopened log starts with.
	states := []struct {
		name      string
		survivors int
		prepare   func(t *testing.T, s Store, synced int64)
	}{
		{"crash", 10, func(t *testing.T, s Store, _ int64) { s.Crash() }},
		{"truncate", 9, func(t *testing.T, s Store, synced int64) {
			if err := s.Truncate(synced - int64(testRecord(9).EncodedSize())); err != nil {
				t.Fatal(err)
			}
		}},
		{"unsynced-tail", 12, func(*testing.T, Store, int64) {}},
	}
	for _, state := range states {
		for _, d := range allDesigns() {
			t.Run(state.name+"/"+d.String(), func(t *testing.T) {
				s := NewMemSegmentStore(0)
				m := New(s, Options{Design: DesignCoupled})
				for i := 0; i < 10; i++ {
					if _, err := m.Insert(testRecord(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				synced := s.DurableSize()
				for i := 10; i < 12; i++ {
					rec := testRecord(i)
					rec.LSN = LSN(s.Size())
					if err := s.WriteAt(encode(rec), s.Size()); err != nil {
						t.Fatal(err)
					}
				}
				state.prepare(t, s, synced)

				m = New(s, Options{Design: d})
				if m.DurableLSN() > m.CurLSN() {
					t.Fatalf("opened with durable %v past head %v", m.DurableLSN(), m.CurLSN())
				}
				n, end := state.survivors, s.Size()
				lsn, err := m.Insert(testRecord(n))
				if err != nil {
					t.Fatal(err)
				}
				if int64(lsn) != end {
					t.Fatalf("first insert at %v, store ended at %d", lsn, end)
				}
				if err := m.Flush(m.CurLSN()); err != nil {
					t.Fatal(err)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if got := scanInOrder(t, s); got != n+1 {
					t.Fatalf("log holds %d records after reopen, want %d", got, n+1)
				}
			})
		}
	}
}

func testRecord(i int) *Record {
	return &Record{Type: RecUpdate, TxID: uint64(i), Redo: bytes.Repeat([]byte{byte(i + 1)}, 40)}
}

// countingStore counts the calls that change the store.
type countingStore struct {
	Store
	calls atomic.Int64
}

func (s *countingStore) WriteAt(b []byte, off int64) error {
	s.calls.Add(1)
	return s.Store.WriteAt(b, off)
}

func (s *countingStore) Flush(upTo int64) error {
	s.calls.Add(1)
	return s.Store.Flush(upTo)
}

// TestCrashStop checks Kill, the power cut as the manager sees it, on all
// three designs. A drain that is inside the store when Kill is called
// finishes before Kill returns; after that no WriteAt or Flush reaches the
// store, whatever is still in the ring and whoever asks, and everyone who
// waits on the log gets an error.
func TestCrashStop(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			inner := &countingStore{Store: NewMemSegmentStore(0)}
			store := &gateStore{Store: inner, entered: make(chan struct{}, 4), release: make(chan struct{})}
			l := newRingLog(store, 1<<16, d)
			if _, err := l.Insert(testRecord(0)); err != nil {
				t.Fatal(err)
			}
			flushed := make(chan error, 1)
			go func() { flushed <- <-l.Subscribe(l.CurLSN()) }()
			<-store.entered // the subscription's drain is parked in the store's Flush

			killed := make(chan struct{})
			go func() {
				l.Kill()
				close(killed)
			}()
			select {
			case <-killed:
				t.Fatal("Kill returned while a drain was inside the store")
			case <-time.After(20 * time.Millisecond):
			}
			close(store.release)
			<-killed
			if err := <-flushed; err != nil {
				t.Fatalf("the subscription whose drain was in the store when Kill was called = %v; it had finished", err)
			}

			calls, durable := inner.calls.Load(), l.DurableLSN()
			if _, err := l.Insert(testRecord(1)); !errors.Is(err, ErrLogClosed) {
				t.Errorf("insert after Kill = %v, want ErrLogClosed", err)
			}
			if err := l.Flush(l.CurLSN() + 1); !errors.Is(err, ErrLogClosed) {
				t.Errorf("flush after Kill = %v, want ErrLogClosed", err)
			}
			if err := <-l.Subscribe(l.CurLSN() + 1); !errors.Is(err, ErrLogClosed) {
				t.Errorf("subscribe after Kill = %v, want ErrLogClosed", err)
			}
			l.drain()
			l.Kill()
			if err := l.Close(); err != nil {
				t.Errorf("close after Kill = %v; there is nothing left to close", err)
			}
			if got := inner.calls.Load(); got != calls {
				t.Errorf("%d store calls after Kill returned", got-calls)
			}
			if got := l.DurableLSN(); got != durable {
				t.Errorf("durable mark moved %v -> %v after Kill", durable, got)
			}
		})
	}
	// With no drain in flight Kill does not start one: what the ring holds
	// is lost, as in a power cut.
	for _, d := range allDesigns() {
		t.Run(d.String()+"/idle", func(t *testing.T) {
			inner := &countingStore{Store: NewMemSegmentStore(0)}
			l := newRingLog(inner, 1<<16, d)
			lsn, err := l.Insert(testRecord(0))
			if err != nil {
				t.Fatal(err)
			}
			l.Kill()
			if err := l.Flush(lsn + 1); !errors.Is(err, ErrLogClosed) {
				t.Errorf("flush after Kill = %v, want ErrLogClosed", err)
			}
			if n := inner.calls.Load(); n != 0 || inner.Size() != logHeaderSize {
				t.Errorf("Kill let %d calls through; the store holds %d bytes", n, inner.Size())
			}
		})
	}
}

// TestBackLinkDeltas: a record's size depends on the LSN it gets, because
// its back-links are stored as distances from it. Six inserters per design
// each keep a PrevLSN chain through their own records and point the
// UndoNext of every other record (a CLR) at the head less a distance
// around a uvarint width boundary (128 and 16 384 bytes); every 40th record
// is 17 KiB, so the PrevLSN after it is three bytes wide. Where the
// distances land depends on the schedule, so one inserter then adds links
// exactly 127, 128, 16 383 and 16 384 bytes back (the log manager does not
// follow links, so they need not be record starts). The scan back must
// find every link as inserted, the records tiling the log from its start
// to CurLSN.
func TestBackLinkDeltas(t *testing.T) {
	const inserters, each = 6, 240
	type links struct{ prev, undoNext LSN }
	for _, d := range allDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			store := NewMemSegmentStore(0)
			m := New(store, Options{Design: d, BufferSize: 1 << 16})
			defer m.Close()
			var mu sync.Mutex
			inserted := make(map[LSN]links)
			insert := func(rec *Record) (LSN, error) {
				ins := m.Insert
				if rec.Type == RecCLR {
					ins = m.InsertCLR
				}
				lsn, err := ins(rec)
				if err == nil {
					mu.Lock()
					inserted[lsn] = links{rec.PrevLSN, rec.UndoNext}
					mu.Unlock()
				}
				return lsn, err
			}
			var wg sync.WaitGroup
			for w := 0; w < inserters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var prev LSN
					for i := 0; i < each; i++ {
						rec := &Record{Type: RecUpdate, TxID: uint64(w), PrevLSN: prev, Redo: make([]byte, (i*7+w)%48)}
						if i%40 == 39 {
							rec.Redo = make([]byte, 17<<10)
						}
						if i%2 == 1 {
							back := LSN(32 + (i*5+w)%128)
							if i%4 == 3 {
								back += 16384 - 128
							}
							if cur := m.CurLSN(); cur >= logHeaderSize+back {
								rec.Type, rec.UndoNext = RecCLR, cur-back
							}
						}
						lsn, err := insert(rec)
						if err != nil {
							t.Error(err)
							return
						}
						prev = lsn
					}
				}(w)
			}
			wg.Wait()
			exact := []uint64{127, 128, 16383, 16384}
			for _, dist := range exact {
				cur := m.CurLSN()
				lsn, err := insert(&Record{Type: RecCLR, TxID: inserters, PrevLSN: cur - LSN(dist), UndoNext: cur - LSN(dist)})
				if err != nil || lsn != cur {
					t.Fatalf("insert at %v: %v, %v", cur, lsn, err)
				}
			}
			if err := m.Flush(m.CurLSN()); err != nil {
				t.Fatal(err)
			}
			seen := make(map[uint64]int) // distances stored, by value
			sc := NewScanner(store, NullLSN)
			end, n := int64(logHeaderSize), 0
			for {
				rec, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if int64(rec.LSN) != end || sc.End()-end != int64(rec.EncodedSize()) {
					t.Fatalf("record at %v, %d bytes, follows a record ending at %d: the log does not tile", rec.LSN, sc.End()-int64(rec.LSN), end)
				}
				want, ok := inserted[rec.LSN]
				if !ok || rec.PrevLSN != want.prev || rec.UndoNext != want.undoNext {
					t.Fatalf("record at %v links %v/%v, inserted with %+v (%v)", rec.LSN, rec.PrevLSN, rec.UndoNext, want, ok)
				}
				for _, link := range []LSN{rec.PrevLSN, rec.UndoNext} {
					if link != NullLSN {
						seen[uint64(rec.LSN-link)]++
					}
				}
				end = sc.End()
				n++
			}
			if n != len(inserted) || LSN(end) != m.CurLSN() || sc.TornBytes() != 0 {
				t.Fatalf("scanned %d records to %d (%d torn); inserted %d to %v", n, end, sc.TornBytes(), len(inserted), m.CurLSN())
			}
			widths := make(map[int]bool)
			for dist := range seen {
				widths[uvarintLen(dist)] = true
			}
			for _, dist := range exact {
				if seen[dist] < 2 {
					t.Errorf("distance %d stored %d times, want at least 2", dist, seen[dist])
				}
			}
			if len(widths) != 3 {
				t.Errorf("stored distances have uvarint widths %v, want 1, 2 and 3", widths)
			}
		})
	}
}
