package plp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

func TestOwnerAndBounds(t *testing.T) {
	m := New(8, 4)
	for rk, want := range map[uint32]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3} {
		if got := m.Owner(rk); got != want {
			t.Errorf("Owner(%d) = %d, want %d", rk, got, want)
		}
	}
	// Clamping keeps the router total.
	if m.Owner(0) != 0 || m.Owner(99) != m.Parts()-1 {
		t.Errorf("out-of-range keys did not clamp: %d %d", m.Owner(0), m.Owner(99))
	}
	// More partitions than keys clamps the partition count.
	if n := New(3, 8); n.Parts() != 3 {
		t.Errorf("Parts = %d, want 3", n.Parts())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := New(4, 3).Repartition(2)
	m, err := m.WithTable(7, []uint64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.WithTable(3, []uint64{11, 21, 31, 41})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("roundtrip not byte-identical")
	}
	if got.Version() != 2 || got.Owner(2) != 0 || got.Owner(3) != 1 {
		t.Fatalf("decoded map differs: version=%d owner(2)=%d owner(3)=%d",
			got.Version(), got.Owner(2), got.Owner(3))
	}
	if !slices.Equal(got.Roots(3), []uint64{11, 21, 31, 41}) {
		t.Fatalf("roots(3) = %v", got.Roots(3))
	}
	// Registration with the wrong segment count is rejected.
	if _, err := m.WithTable(9, []uint64{1}); err == nil {
		t.Error("short root list accepted")
	}
	// Corruption is detected: bad magic, truncation, trailing bytes.
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic decoded")
	}
	if _, err := Decode(enc[:10]); err == nil {
		t.Error("truncated map decoded")
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes decoded")
	}
	// A registered store appears once.
	dup := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(dup[len(dup)-2*(4+8*4):], 7)
	if _, err := Decode(dup); err == nil {
		t.Error("store registered twice decoded")
	}
}

// TestDecodeRejectsBadBounds patches the bounds of a valid encoding:
// they must start at 1, end past the last key, and never decrease.
func TestDecodeRejectsBadBounds(t *testing.T) {
	enc := New(8, 4).Encode()
	const at = 4 + 8 + 4 + 4 // magic, version, keys, parts
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][5]uint32{
		{2, 4, 5, 7, 9},  // does not start at 1
		{1, 4, 5, 7, 10}, // does not cover the keyspace
		{1, 5, 4, 7, 9},  // not monotonic
	} {
		bad := append([]byte(nil), enc...)
		for i, b := range bounds {
			binary.BigEndian.PutUint32(bad[at+4*i:], b)
		}
		if _, err := Decode(bad); err == nil {
			t.Errorf("bounds %v decoded", bounds)
		}
	}
}

func TestRepartition(t *testing.T) {
	m := New(8, 4)
	n := m.Repartition(2)
	if n.Parts() != 2 || n.Version() != m.Version()+1 {
		t.Fatalf("parts=%d version=%d", n.Parts(), n.Version())
	}
	for rk, want := range map[uint32]int{1: 0, 4: 0, 5: 1, 8: 1} {
		if got := n.Owner(rk); got != want {
			t.Errorf("Owner(%d) = %d, want %d", rk, got, want)
		}
	}
}

// FuzzDecode: Decode never panics, and a map it accepts re-encodes to
// bytes that decode to an equal map.
func FuzzDecode(f *testing.F) {
	m, _ := New(4, 2).WithTable(7, []uint64{10, 20, 30, 40})
	f.Add(m.Encode())
	f.Add(New(8, 4).Encode())
	f.Add(New(1, 1).Repartition(1).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded map does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded map differs: %+v, want %+v", again, m)
		}
	})
}
