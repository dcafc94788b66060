package plp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, err := New(4).WithTable(7, []uint64{10, 20, 30, 40})
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
	if got.Keys() != 4 || !slices.Equal(got.Tables(), []uint32{3, 7}) {
		t.Fatalf("decoded map differs: keys=%d tables=%v", got.Keys(), got.Tables())
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

// TestDecodeRejectsBadHeader: a record in the retired PLP1 layout (magic,
// version, keys, parts, ownership bounds, tables) and an empty keyspace
// are corrupt.
func TestDecodeRejectsBadHeader(t *testing.T) {
	plp1 := []byte("PLP1")
	plp1 = binary.BigEndian.AppendUint64(plp1, 1) // version
	plp1 = binary.BigEndian.AppendUint32(plp1, 2) // keys
	plp1 = binary.BigEndian.AppendUint32(plp1, 1) // parts
	plp1 = binary.BigEndian.AppendUint32(plp1, 1) // bounds
	plp1 = binary.BigEndian.AppendUint32(plp1, 3)
	plp1 = binary.BigEndian.AppendUint32(plp1, 0) // tables
	if _, err := Decode(plp1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("PLP1 record: err = %v, want ErrCorrupt", err)
	}
	if _, err := Decode(New(0).Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty keyspace: err = %v, want ErrCorrupt", err)
	}
}

// FuzzDecode: Decode never panics, and a map it accepts re-encodes to
// bytes that decode to an equal map.
func FuzzDecode(f *testing.F) {
	m, _ := New(4).WithTable(7, []uint64{10, 20, 30, 40})
	f.Add(m.Encode())
	f.Add(New(8).Encode())
	f.Add(New(1).Encode())
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
