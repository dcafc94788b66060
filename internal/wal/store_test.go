package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// storeSnap is the state load derives, in a comparable form.
type storeSnap struct {
	first, last, sealFrom uint64
	size, durable         int64
	master                LSN
	segs                  string // per segment: index, sealed flag, file size
}

func snapStore(s *SegmentStore) storeSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := storeSnap{first: s.first, last: s.last, sealFrom: s.sealFrom, size: s.size, durable: s.durable, master: s.master}
	for k := s.first; s.segs[k] != nil; k++ {
		sn.segs += fmt.Sprintf("%d:%v:%d ", k, s.segs[k].sealed, s.segs[k].f.size())
	}
	return sn
}

// readBack checks that s holds want[lo:hi] at [lo, hi).
func readBack(s Store, want []byte, lo, hi int64) error {
	if hi <= lo {
		return nil
	}
	got := make([]byte, hi-lo)
	if _, err := s.ReadAt(got, lo); err != nil {
		return fmt.Errorf("read [%d,%d): %v", lo, hi, err)
	}
	if !bytes.Equal(got, want[lo:hi]) {
		for i := range got {
			if got[i] != want[lo+int64(i)] {
				return fmt.Errorf("byte %d of [%d,%d) reads %#x, written %#x", lo+int64(i), lo, hi, got[i], want[lo+int64(i)])
			}
		}
	}
	return nil
}

// clipToReadable does what recovery does with the store a crash left: it
// finds where the log stops being readable at or above floor — a segment
// that lost its unsynced bytes leaves a hole before a successor created
// earlier — checks that everything up to there is as written, and clips
// the rest. It returns the new end.
func clipToReadable(s Store, want []byte, floor int64) (int64, error) {
	n, _ := s.ReadAt(make([]byte, s.Size()-floor), floor)
	end := floor + int64(n)
	if err := readBack(s, want, floor, end); err != nil {
		return 0, err
	}
	return end, s.Truncate(end)
}

// runStoreScript drives a store over be with a random script of the calls
// an engine, a crash and a test's fault injection make, against a model —
// every byte written, by LSN, and a durable mark — and returns the first
// departure from the Store invariant. again opens the same device a second
// time, for the "a crashed store is a reopened store" check.
func runStoreScript(be segBackend, again func() (segBackend, error), seed int64) error {
	const segBytes = MinSegmentBytes
	rng := rand.New(rand.NewSource(seed))
	s, err := newSegmentStore(be, segBytes)
	if err != nil {
		return err
	}
	defer s.Close()
	data := append([]byte(nil), logMagic[:]...) // the model: the log's bytes from LSN 0
	durable := int64(logHeaderSize)             // every byte below it was covered by a Flush that succeeded
	var master LSN
	low := func() int64 { // lowest readable LSN
		first, _ := s.Segments()
		return max(int64(first)*segBytes, logHeaderSize)
	}
	for step := 0; step < 80; step++ {
		size := s.Size()
		if size != int64(len(data)) || s.DurableSize() < durable || s.DurableSize() > size {
			return fmt.Errorf("step %d: size %d durable %d; model holds %d bytes, %d durable", step, size, s.DurableSize(), len(data), durable)
		}
		if m, err := s.Master(); err != nil || m != master {
			return fmt.Errorf("step %d: master %v, %v; want %v", step, m, err, master)
		}
		switch op := rng.Intn(100); {
		case op < 40: // a contiguous append, at times longer than a segment
			b := make([]byte, 1+rng.Intn(3*segBytes/2))
			rng.Read(b)
			if err := s.WriteAt(b, size); err != nil {
				return fmt.Errorf("step %d: append: %v", step, err)
			}
			data = append(data, b...)
		case op < 60:
			upTo := size
			if rng.Intn(3) == 0 {
				upTo = durable + rng.Int63n(size-durable+1)
			}
			before := s.DurableSize()
			if err := s.Flush(upTo); err == nil {
				durable = max(durable, upTo)
			} else if !errors.Is(err, ErrInjectedFlush) {
				return fmt.Errorf("step %d: flush: %v", step, err)
			} else if s.DurableSize() != before || s.Size() != size {
				return fmt.Errorf("step %d: a failed Flush moved durable %d -> %d, size %d -> %d", step, before, s.DurableSize(), size, s.Size())
			}
		case op < 66:
			s.FailFlushes(int64(rng.Intn(3)))
		case op < 72:
			s.FailFlushes(-1)
		case op < 78:
			s.ArmTornCrash(rng.Int63n(2 * segBytes))
		case op < 88:
			s.Crash()
			if _, err := s.Master(); err != nil {
				return fmt.Errorf("step %d: the store a crash left does not load: %v", step, err)
			}
			size, h := s.Size(), int64(s.Horizon())
			if size < durable || h > size {
				return fmt.Errorf("step %d: crash left %d bytes (horizon %d) of %d written, %d durable", step, size, h, len(data), durable)
			}
			if err := readBack(s, data, low(), max(h, durable)); err != nil {
				return fmt.Errorf("step %d: after a crash, below the horizon %d and the durable mark %d: %v", step, h, durable, err)
			}
			be2, err := again()
			if err != nil {
				return err
			}
			fresh, err := newSegmentStore(be2, segBytes)
			if err != nil {
				return fmt.Errorf("step %d: reopening the crashed device: %v", step, err)
			}
			got, want := snapStore(s), snapStore(fresh)
			fresh.Close()
			if got != want {
				return fmt.Errorf("step %d: the store after Crash is %+v, a fresh load of the same device %+v", step, got, want)
			}
			// Torn bytes above the marks came from the same writes.
			end, err := clipToReadable(s, data, max(h, durable, low()))
			if err != nil {
				return fmt.Errorf("step %d: after a crash, above the marks: %v", step, err)
			}
			data, durable = data[:end], s.DurableSize() // what survived will survive again
		case op < 92: // clip the tail, as recovery clips a torn one
			to := max(int64(s.Horizon()), low())
			to += rng.Int63n(size - to + 1)
			if err := s.Truncate(to); err != nil {
				return fmt.Errorf("step %d: truncate to %d: %v", step, to, err)
			}
			data, durable = data[:to], min(durable, to)
		case op < 96: // a checkpoint's master record: never past what was flushed
			master += LSN(rng.Int63n(durable - int64(master) + 1))
			if err := s.SetMaster(master); err != nil {
				return fmt.Errorf("step %d: set master: %v", step, err)
			}
		default: // archiving stops at the checkpoint
			if _, err := s.ArchiveBelow(LSN(rng.Int63n(int64(master) + 1))); err != nil {
				return fmt.Errorf("step %d: archive: %v", step, err)
			}
		}
	}
	return readBack(s, data, low(), s.Size())
}

// TestStoreProperty holds the one store to its written invariant — every
// byte below Horizon() was written and synced, a failed Flush changes
// nothing observable, and after Crash the store is what a reopen loads —
// over both backends, with seeded random scripts.
func TestStoreProperty(t *testing.T) {
	// A script over files is bound by its fsyncs, so there are fewer.
	const memSeeds, fileSeeds = 100, 8
	t.Run("mem", func(t *testing.T) {
		for seed := int64(1); seed <= memSeeds; seed++ {
			be := newMemSegBackend()
			again := func() (segBackend, error) { return be.clone(), nil }
			if err := runStoreScript(be, again, seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
	t.Run("file", func(t *testing.T) {
		for seed := int64(1); seed <= fileSeeds; seed++ {
			dir := t.TempDir()
			again := func() (segBackend, error) { return newFileSegBackend(dir) }
			be, err := again()
			if err != nil {
				t.Fatal(err)
			}
			if err := runStoreScript(be, again, seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}

// TestTornCrashKeepsAPrefix: what a torn crash keeps of the unsynced bytes
// is their first keep bytes in LSN order, across segment boundaries, and
// nothing after them.
func TestTornCrashKeepsAPrefix(t *testing.T) {
	const segBytes, synced, keep = MinSegmentBytes, 1000, MinSegmentBytes + 100
	s := NewMemSegmentStore(segBytes)
	data := append([]byte(nil), logMagic[:]...)
	data = append(data, bytes.Repeat([]byte{0x5A}, 3*segBytes)...)
	if err := s.WriteAt(data[logHeaderSize:synced], logHeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(synced); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(data[synced:], synced); err != nil { // into segments 0 to 3, none synced
		t.Fatal(err)
	}
	s.ArmTornCrash(keep)
	s.Crash()
	end, err := clipToReadable(s, data, synced)
	if err != nil {
		t.Fatal(err)
	}
	if end != synced+keep {
		t.Fatalf("the log is readable to %d after the crash, want the %d synced bytes and %d torn ones", end, synced, keep)
	}
}

// faultBackend fails one device call — a create, a write or a sync — of
// the segments under it: the one that finds countdown at zero.
type faultBackend struct {
	segBackend
	countdown int // calls to let through first; < 0: disarmed
}

type faultFile struct {
	segFile
	b *faultBackend
}

var errDevice = errors.New("injected device failure")

func (b *faultBackend) tick() error {
	b.countdown--
	if b.countdown == -1 {
		return errDevice
	}
	b.countdown = max(b.countdown, -1)
	return nil
}

func (b *faultBackend) create(idx uint64, size int64) (segFile, error) {
	if err := b.tick(); err != nil {
		return nil, err
	}
	f, err := b.segBackend.create(idx, size)
	return faultFile{f, b}, err
}

func (b *faultBackend) open(idx uint64) (segFile, error) {
	f, err := b.segBackend.open(idx)
	return faultFile{f, b}, err
}

func (f faultFile) writeAt(p []byte, off int64) error {
	if err := f.b.tick(); err != nil {
		return err
	}
	return f.segFile.writeAt(p, off)
}

func (f faultFile) sync() error {
	if err := f.b.tick(); err != nil {
		return err
	}
	return f.segFile.sync()
}

// TestFailedFlushChangesNothing fails, in turn, every device call of a
// Flush that syncs two full segments and seals both — the second seal has
// to create its successor first. Whichever call fails, the durable mark
// stays, no byte below Horizon() is unwritten — before a crash or after —
// the crashed store loads, and a healed device takes the same Flush.
func TestFailedFlushChangesNothing(t *testing.T) {
	const segBytes = MinSegmentBytes
	data := append(append([]byte(nil), logMagic[:]...), bytes.Repeat([]byte{0xC5}, 2*segBytes-logHeaderSize)...)
	for n := 0; ; n++ {
		be := &faultBackend{segBackend: newMemSegBackend(), countdown: -1}
		s, err := newSegmentStore(be, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteAt(data[logHeaderSize:], logHeaderSize); err != nil {
			t.Fatal(err)
		}
		be.countdown = n
		err = s.Flush(s.Size())
		if err == nil {
			if n < 9 { // 2 syncs; header + sync; create + header + sync, header + sync
				t.Fatalf("the Flush made only %d device calls; the test no longer covers a seal that creates its successor", n)
			}
			if h := s.Horizon(); h != 2*segBytes {
				t.Fatalf("horizon after the whole Flush = %v, want both segments sealed", h)
			}
			return
		}
		if !errors.Is(err, errDevice) {
			t.Fatalf("call %d: Flush = %v", n, err)
		}
		check := func(when string) {
			t.Helper()
			h := int64(s.Horizon())
			if h > s.Size() {
				t.Fatalf("call %d failed, %s: horizon %d past the log's end %d", n, when, h, s.Size())
			}
			if err := readBack(s, data, logHeaderSize, h); err != nil {
				t.Fatalf("call %d failed, %s: below the horizon: %v", n, when, err)
			}
		}
		if s.DurableSize() != logHeaderSize || s.Size() != 2*segBytes {
			t.Fatalf("call %d failed and the Flush moved durable to %d, size to %d", n, s.DurableSize(), s.Size())
		}
		check("before the crash")
		s.Crash()
		if _, err := s.Master(); err != nil {
			t.Fatalf("call %d failed: the crashed store does not load: %v", n, err)
		}
		check("after the crash")
		// Recovery clips the log where it stops; the next manager writes
		// the tail again and flushes it.
		end, err := clipToReadable(s, data, int64(s.Horizon()))
		if err != nil {
			t.Fatalf("call %d failed: above the horizon: %v", n, err)
		}
		if err := s.WriteAt(data[end:], end); err != nil {
			t.Fatalf("call %d failed: rewriting the lost tail: %v", n, err)
		}
		if err := s.Flush(s.Size()); err != nil {
			t.Fatalf("call %d failed: flush on the healed device: %v", n, err)
		}
		if err := readBack(s, data, logHeaderSize, 2*segBytes); err != nil || s.Horizon() != 2*segBytes {
			t.Fatalf("call %d failed: after healing, horizon %v, %v", n, s.Horizon(), err)
		}
	}
}

// TestReadRecordAtVerdicts puts each kind of garbage at each kind of place
// and asks the one reader what it is: below the horizon it is corruption,
// at or above it a torn tail, whatever the garbage; and the scanner and
// ReadRecordAt pass that verdict on.
func TestReadRecordAtVerdicts(t *testing.T) {
	base := NewMemSegmentStore(MinSegmentBytes)
	m := New(base, Options{Design: DesignCoupled})
	fillSegments(t, m, base, 2)
	for i := 0; i < 3; i++ { // a few more, so the tail segment holds several
		if _, err := m.Insert(&Record{Type: RecUpdate, TxID: 1, Redo: bytes.Repeat([]byte{0xAB}, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	horizon := int64(base.Horizon())
	var lsns []int64
	sc := NewScanner(base, NullLSN)
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, int64(rec.LSN))
	}
	last := lsns[len(lsns)-1]
	recLen := base.Size() - last // every record is the same size
	positions := []struct {
		name string
		off  int64
	}{
		{"below the horizon", lsns[1]},
		{"at the horizon or above", lsns[len(lsns)-3]},
		{"last record", last},
	}
	if positions[0].off+recLen > horizon || positions[1].off < horizon {
		t.Fatalf("records at %d and %d do not straddle the horizon %d", positions[0].off, positions[1].off, horizon)
	}
	overwrite := func(at int64, b []byte) func(*SegmentStore, int64) int64 {
		return func(s *SegmentStore, off int64) int64 {
			if err := s.WriteAt(b, off+at); err != nil {
				t.Fatal(err)
			}
			return s.Size()
		}
	}
	// The header of every record here is one byte each: type, txid 1,
	// prev, page, undo-next, redo length 64, undo length 0.
	kinds := []struct {
		name string
		// damage makes the record at off bad and returns where the log
		// now ends for a reader.
		damage func(s *SegmentStore, off int64) (limit int64)
		cause  error // what the verdict must name
	}{
		{"zero fill", overwrite(0, make([]byte, recLen)), errBadTag},
		{"invalid tag", overwrite(0, []byte{byte(RecCkptEnd + 1)}), errBadTag},
		{"non-minimal uvarint", overwrite(1, []byte{0x81, 0x00}), errNonMinimal},
		{"payload length past limit", overwrite(5, []byte{0x80, 0x80, 0x41, 0x00}), errPayloadLen},
		{"bad crc", overwrite(10, []byte{0x00}), errBadCRC},
		{"truncated header", func(_ *SegmentStore, off int64) int64 { return off + 3 }, errTruncHeader},
		{"truncated body", func(_ *SegmentStore, off int64) int64 { return off + recLen - 1 }, errTruncBody},
	}
	for _, pos := range positions {
		for _, kind := range kinds {
			t.Run(pos.name+"/"+kind.name, func(t *testing.T) {
				s := base.Clone()
				limit := kind.damage(s, pos.off)
				want := errTorn
				if pos.off < horizon {
					want = ErrCorrupt
				}
				_, _, err := readRecordAt(s, pos.off, limit, make([]byte, maxHeaderSize))
				if !errors.Is(err, want) || !strings.Contains(err.Error(), kind.cause.Error()) {
					t.Fatalf("readRecordAt = %v, want %v for %q", err, want, kind.cause)
				}
				if limit != s.Size() {
					if want == ErrCorrupt {
						return // the store refuses to end below its horizon
					}
					if err := s.Truncate(limit); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := ReadRecordAt(s, LSN(pos.off)); !errors.Is(err, want) {
					t.Errorf("ReadRecordAt = %v, want %v", err, want)
				}
				end, torn, err := CheckTail(s)
				if want == ErrCorrupt {
					if !errors.Is(err, ErrCorrupt) {
						t.Errorf("CheckTail = %v, want ErrCorrupt", err)
					}
				} else if err != nil || end != pos.off || torn != s.Size()-pos.off {
					t.Errorf("CheckTail = end %d, %d torn, %v; want the log to end at %d with %d torn", end, torn, err, pos.off, s.Size()-pos.off)
				}
			})
		}
	}
}
