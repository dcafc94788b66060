package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillSegments pushes records through a manager until the store has
// rotated past wantLast segments, then flushes everything. Returns the
// inserted record count.
func fillSegments(t *testing.T, m Manager, s *SegmentStore, wantLast uint64) int {
	t.Helper()
	n := 0
	for {
		rec := &Record{Type: RecUpdate, TxID: uint64(n), Page: 7, Redo: bytes.Repeat([]byte{0xAB}, 64)}
		lsn, err := m.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		n++
		if err := m.Flush(lsn + 1); err != nil {
			t.Fatal(err)
		}
		if _, last := s.Segments(); last >= wantLast {
			return n
		}
	}
}

func TestSegmentRotationAndSealing(t *testing.T) {
	for _, d := range allDesigns() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			s := NewMemSegmentStore(MinSegmentBytes)
			m := New(s, Options{Design: d})
			n := fillSegments(t, m, s, 3)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			first, last := s.Segments()
			if first != 0 || last < 3 {
				t.Fatalf("segments = [%d, %d], want [0, >=3]", first, last)
			}
			// Every segment before the tail must be sealed, and the sealed
			// prefix is the durable horizon floor.
			if h := s.Horizon(); int64(h) != int64(last)*MinSegmentBytes {
				t.Fatalf("horizon = %v, want sealed prefix end %d", h, int64(last)*MinSegmentBytes)
			}
			// Scan everything back across the boundaries.
			sc := NewScanner(s, NullLSN)
			count := 0
			for {
				rec, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if rec.TxID != uint64(count) {
					t.Fatalf("record %d has txid %d", count, rec.TxID)
				}
				count++
			}
			if count != n {
				t.Fatalf("scanned %d records, want %d", count, n)
			}
			if sc.TornBytes() != 0 {
				t.Fatalf("torn bytes = %d on a clean log", sc.TornBytes())
			}
		})
	}
}

func TestSegmentStoreFileReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := OpenSegmentStore(dir, MinSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	m := New(s, Options{Design: DesignConsolidated})
	n := fillSegments(t, m, s, 2)
	if err := s.SetMaster(logHeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmentStore(dir, MinSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if mstr, _ := s2.Master(); mstr != logHeaderSize {
		t.Fatalf("master after reopen = %v", mstr)
	}
	end, torn, err := CheckTail(s2)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("clean reopen reports %d torn bytes", torn)
	}
	if end != s2.Size() {
		t.Fatalf("CheckTail end %d != size %d", end, s2.Size())
	}
	// The log keeps growing where it left off.
	m2 := New(s2, Options{Design: DesignConsolidated})
	lsn, err := m2.Insert(&Record{Type: RecUpdate, TxID: 999, Redo: []byte("after")})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Flush(lsn + 1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(s2, NullLSN)
	count, sawNew := 0, false
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.TxID == 999 {
			sawNew = true
		}
		count++
	}
	if count != n+1 || !sawNew {
		t.Fatalf("scanned %d records (new record seen: %v), want %d", count, sawNew, n+1)
	}
}

func TestSegmentTornTailClipped(t *testing.T) {
	s := NewMemSegmentStore(MinSegmentBytes)
	m := New(s, Options{Design: DesignCoupled})
	fillSegments(t, m, s, 1)
	durable := s.DurableSize()

	// Write a record past the durable boundary without flushing, then
	// crash with a torn tail: part of the in-flight bytes hit the disk.
	buf := encode(&Record{Type: RecUpdate, TxID: 5000, Redo: bytes.Repeat([]byte{1}, 64)})
	if err := s.WriteAt(buf, durable); err != nil {
		t.Fatal(err)
	}
	// Crash without closing the manager: the unflushed tail is lost.
	s.ArmTornCrash(37)
	s.Crash()
	if got := s.Size(); got != durable+37 {
		t.Fatalf("post-crash size = %d, want %d", got, durable+37)
	}

	end, torn, err := CheckTail(s)
	if err != nil {
		t.Fatalf("CheckTail on a torn tail must clip, not fail: %v", err)
	}
	if end != durable {
		t.Fatalf("valid end = %d, want durable boundary %d", end, durable)
	}
	if torn != 37 {
		t.Fatalf("torn = %d, want 37", torn)
	}
	if err := s.Truncate(end); err != nil {
		t.Fatal(err)
	}
	if s.Size() != durable {
		t.Fatalf("size after clip = %d, want %d", s.Size(), durable)
	}
	// The clipped log scans cleanly.
	sc := NewScanner(s, NullLSN)
	for {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentCorruptionBelowHorizonRefused(t *testing.T) {
	s := NewMemSegmentStore(MinSegmentBytes)
	m := New(s, Options{Design: DesignCoupled})
	fillSegments(t, m, s, 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Segment 0 is sealed, so everything in it is below the horizon.
	if h := s.Horizon(); int64(h) < MinSegmentBytes {
		t.Fatalf("horizon %v below first segment end", h)
	}
	// Flip a byte in the middle of a record inside segment 0.
	if err := s.WriteAt([]byte{0xFF}, logHeaderSize+20); err != nil { // in the first record's redo
		t.Fatal(err)
	}
	_, _, err := CheckTail(s)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CheckTail = %v, want ErrCorrupt", err)
	}
}

// TestSegmentVersion1Refused: a log written in the 48-byte record frame
// has segment version 1, and no decoder for that frame is kept, so the
// store refuses it at open and says which version it found.
func TestSegmentVersion1Refused(t *testing.T) {
	be := newMemSegBackend()
	f, err := be.create(0, segHeaderSize+MinSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	hdr := encodeSegHeader(0, 0, false, 0)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	binary.LittleEndian.PutUint32(hdr[40:], crc32.ChecksumIEEE(hdr[:40]))
	if err := f.writeAt(append(hdr[:], logMagic[:]...), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.sync(); err != nil {
		t.Fatal(err)
	}
	_, err = newSegmentStore(be, MinSegmentBytes)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "segment version 1 (want 2)") {
		t.Fatalf("open of a version 1 segment = %v, want ErrCorrupt naming the version", err)
	}
}

func TestSegmentArchive(t *testing.T) {
	s := NewMemSegmentStore(MinSegmentBytes)
	m := New(s, Options{Design: DesignDecoupled})
	// Fill past three rotations, remembering the first record boundary in
	// segment 2 — archive points are always real record LSNs in practice.
	var bound LSN
	for i := 0; ; i++ {
		rec := &Record{Type: RecUpdate, TxID: uint64(i), Redo: bytes.Repeat([]byte{0xAB}, 64)}
		lsn, err := m.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(lsn + 1); err != nil {
			t.Fatal(err)
		}
		if bound == NullLSN && int64(lsn) >= 2*MinSegmentBytes {
			bound = lsn
		}
		if _, last := s.Segments(); last >= 3 {
			break
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := s.ArchiveBelow(bound)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("archived %d segments, want 2", n)
	}
	if first, _ := s.Segments(); first != 2 {
		t.Fatalf("first retained segment = %d, want 2", first)
	}
	if s.Archived() != 2 {
		t.Fatalf("Archived() = %d, want 2", s.Archived())
	}
	// Reads below the archive boundary fail loudly.
	var b [8]byte
	if _, err := s.ReadAt(b[:], logHeaderSize); !errors.Is(err, ErrInvalidLSN) {
		t.Fatalf("read below boundary = %v, want ErrInvalidLSN", err)
	}
	// Scanning from the archive point still works.
	sc := NewScanner(s, bound)
	found := 0
	for {
		_, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no records scanned above the archive boundary")
	}
	// The tail segment itself can never be archived.
	if _, err := s.ArchiveBelow(LSN(1 << 60)); err != nil {
		t.Fatal(err)
	}
	if first, last := s.Segments(); first != last {
		t.Fatalf("archive-everything left [%d, %d], want the tail only", first, last)
	}
}

func TestSegmentMissingTailRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := OpenSegmentStore(dir, MinSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	m := New(s, Options{Design: DesignCoupled})
	fillSegments(t, m, s, 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Deleting the highest segment removes durable log: the predecessor is
	// sealed, and a sealed segment always has a durable successor, so
	// reopen must refuse rather than silently shorten history.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			names = append(names, e.Name())
		}
	}
	if len(names) < 3 {
		t.Fatalf("want >=3 segment files, have %v", names)
	}
	if err := os.Remove(filepath.Join(dir, names[len(names)-1])); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentStore(dir, MinSegmentBytes); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen with deleted tail segment = %v, want ErrCorrupt", err)
	}

	// A missing middle segment breaks the chain the same way.
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentStore(dir, MinSegmentBytes); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen with deleted middle segment = %v, want ErrCorrupt", err)
	}
}

func TestSegmentTruncateLimits(t *testing.T) {
	s := NewMemSegmentStore(MinSegmentBytes)
	m := New(s, Options{Design: DesignCoupled})
	fillSegments(t, m, s, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(4); !errors.Is(err, ErrInvalidLSN) {
		t.Fatalf("truncate into preamble = %v, want ErrInvalidLSN", err)
	}
	// Segment 0 is sealed; clipping into it would discard durable log.
	if err := s.Truncate(MinSegmentBytes - 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncate below sealed boundary = %v, want ErrCorrupt", err)
	}
	// Clipping within the unsealed tail is fine.
	want := int64(MinSegmentBytes)
	if err := s.Truncate(want); err != nil {
		t.Fatal(err)
	}
	if s.Size() != want {
		t.Fatalf("size = %d, want %d", s.Size(), want)
	}
	// The sealed predecessor keeps its empty successor: reopen semantics
	// depend on the tail being unsealed.
	if first, last := s.Segments(); first != 0 || last != 1 {
		t.Fatalf("segments after clip = [%d, %d], want [0, 1]", first, last)
	}
}

func TestSegmentFailFlushes(t *testing.T) {
	s := NewMemSegmentStore(MinSegmentBytes)
	s.FailFlushes(0)
	if err := s.WriteAt([]byte("xxxx"), logHeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(s.Size()); !errors.Is(err, ErrInjectedFlush) {
		t.Fatalf("flush = %v, want ErrInjectedFlush", err)
	}
	if err := s.Flush(s.Size()); !errors.Is(err, ErrInjectedFlush) {
		t.Fatalf("second flush = %v, want ErrInjectedFlush", err)
	}
	s.FailFlushes(-1)
	if err := s.Flush(s.Size()); err != nil {
		t.Fatal(err)
	}
	if s.DurableSize() != s.Size() {
		t.Fatalf("durable %d != size %d after healed flush", s.DurableSize(), s.Size())
	}
}

func TestSegmentStoreClone(t *testing.T) {
	s := NewMemSegmentStore(MinSegmentBytes)
	m := New(s, Options{Design: DesignCoupled})
	fillSegments(t, m, s, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if c.Size() != s.Size() || c.DurableSize() != s.DurableSize() {
		t.Fatalf("clone size/durable mismatch: %d/%d vs %d/%d",
			c.Size(), c.DurableSize(), s.Size(), s.DurableSize())
	}
	// Writes to the original do not leak into the clone.
	before := c.Size()
	if err := s.WriteAt(bytes.Repeat([]byte{9}, 100), s.Size()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(s.Size()); err != nil {
		t.Fatal(err)
	}
	if c.Size() != before {
		t.Fatalf("clone grew with the original: %d -> %d", before, c.Size())
	}
	var a, b [64]byte
	if _, err := s.ReadAt(a[:], logHeaderSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(b[:], logHeaderSize); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("clone data diverged at the log start")
	}
}
