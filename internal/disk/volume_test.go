package disk

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/page"
)

func fill(b byte) []byte {
	buf := make([]byte, page.Size)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func testVolume(t *testing.T, v Volume) {
	t.Helper()
	if v.NumPages() != 0 {
		t.Fatalf("fresh volume has %d pages", v.NumPages())
	}
	first, err := v.Grow(4)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first grown page = %v, want 1", first)
	}
	if v.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4", v.NumPages())
	}
	// Fresh pages read as zero, whatever the buffer held.
	buf := fill(0xff)
	if err := v.Read(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, page.Size)) {
		t.Fatal("fresh page not zeroed")
	}
	// Round-trip.
	if err := v.Write(3, fill(0xab)); err != nil {
		t.Fatal(err)
	}
	if err := v.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(0xab)) {
		t.Fatal("round-trip mismatch")
	}
	// Bounds.
	if err := v.Read(0, buf); err == nil {
		t.Error("Read(0) did not fail")
	}
	if err := v.Read(5, buf); err == nil {
		t.Error("Read beyond end did not fail")
	}
	if err := v.Write(9, buf); err == nil {
		t.Error("Write beyond end did not fail")
	}
	// Size checks.
	if err := v.Read(1, make([]byte, 7)); err != page.ErrWrongSize {
		t.Errorf("short buffer Read err = %v", err)
	}
	if err := v.Write(1, make([]byte, 7)); err != page.ErrWrongSize {
		t.Errorf("short buffer Write err = %v", err)
	}
	// Grow again from existing size.
	next, err := v.Grow(2)
	if err != nil {
		t.Fatal(err)
	}
	if next != 5 {
		t.Fatalf("second Grow first page = %v, want 5", next)
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Read(1, buf); err == nil {
		t.Error("Read after Close did not fail")
	}
}

func TestMemVolume(t *testing.T) {
	testVolume(t, NewMem(0))
}

func TestFileVolume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.db")
	v, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	testVolume(t, v)
	// Reopen: data persists.
	v2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.NumPages() != 6 {
		t.Fatalf("reopened NumPages = %d, want 6", v2.NumPages())
	}
	buf := make([]byte, page.Size)
	if err := v2.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(0xab)) {
		t.Fatal("persisted page mismatch")
	}
}

func TestMemVolumeInitialSize(t *testing.T) {
	v := NewMem(10)
	if v.NumPages() != 10 {
		t.Fatalf("NumPages = %d, want 10", v.NumPages())
	}
	if st := v.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Error("fresh volume has nonzero stats")
	}
	buf := make([]byte, page.Size)
	if err := v.Write(10, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Read(10, buf); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1/1", st)
	}
}

func TestMemVolumeConcurrent(t *testing.T) {
	v := NewMem(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, page.Size)
			for i := 0; i < 200; i++ {
				pid := page.ID(g*8 + i%8 + 1) // disjoint pages per goroutine
				if err := v.Write(pid, fill(byte(g))); err != nil {
					t.Error(err)
					return
				}
				if err := v.Read(pid, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(g) {
					t.Errorf("goroutine %d read %d", g, buf[0])
					return
				}
			}
		}(g)
	}
	// Concurrent growth.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := v.Grow(1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if v.NumPages() != 84 {
		t.Fatalf("NumPages = %d, want 84", v.NumPages())
	}
}
