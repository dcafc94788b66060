package btree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/pageop"
)

// TestNodeImageRoundTrip is the split log record's contract as a property:
// a node image, less its free gap, survives the log (encode, decode) and
// redoes onto a frame holding anything at all, here all 0xFF, as exactly
// the page that was built. Fixed cases (an empty leaf, a full leaf, a
// branch) ride along with random entry sets.
// encodeLeafEntry builds a leaf entry record.
func encodeLeafEntry(key, value []byte) []byte {
	return appendLeafEntry(make([]byte, 0, 2+len(key)+len(value)), key, value)
}

func TestNodeImageRoundTrip(t *testing.T) {
	redone := func(b []byte) []byte {
		op := pageop.Image(b)
		if p, _ := page.Wrap(b); int(op.Del) != p.FreeSpace() || int(op.Del)+len(op.Data) != page.Size {
			t.Fatalf("image of %d bytes with a %d-byte hole; the page has %d bytes free", len(op.Data), op.Del, p.FreeSpace())
		}
		dec, err := pageop.Decode(op.Encode())
		if err != nil {
			t.Fatal(err)
		}
		p, _ := page.Wrap(bytes.Repeat([]byte{0xff}, page.Size))
		if err := pageop.Apply(p, dec); err != nil {
			t.Fatal(err)
		}
		return p.Bytes()
	}
	leafHdr := nodeHeader{flags: flagLeaf, right: 9, highKey: []byte("high key")}
	var full [][]byte // as many entries as fit beside the header: 32 bytes of page header, 4 per slot
	for i, free := 0, page.Size-32-4-len(leafHdr.encode()); ; i++ {
		e := encodeLeafEntry(key(i), wideVal(i))
		if free -= len(e) + 4; free < 0 {
			break
		}
		full = append(full, e)
	}
	var branch [][]byte
	for i := 0; i < 50; i++ {
		branch = append(branch, encodeBranchEntry(key(i), page.ID(100+i)))
	}
	for name, b := range map[string][]byte{
		"empty leaf": buildNodeImage(7, 3, nodeHeader{flags: flagLeaf | flagRoot}, nil),
		"full leaf":  buildNodeImage(7, 3, leafHdr, full),
		"branch":     buildNodeImage(7, 3, nodeHeader{level: 1, leftChild: 99}, branch),
	} {
		if got := redone(b); !bytes.Equal(got, b) {
			t.Errorf("%s: the redone page differs from the image", name)
		}
	}
	if p, _ := page.Wrap(buildNodeImage(7, 3, leafHdr, full)); p.CanFit(len(full[0])) {
		t.Fatalf("the full leaf has %d bytes free", p.FreeSpace())
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hdr := nodeHeader{flags: flagLeaf, right: page.ID(rng.Intn(1000))}
		if rng.Intn(2) == 0 {
			hdr = nodeHeader{level: uint8(1 + rng.Intn(3)), leftChild: page.ID(rng.Intn(1000))}
		}
		if rng.Intn(2) == 0 {
			hdr.highKey = make([]byte, 1+rng.Intn(40))
			rng.Read(hdr.highKey)
		}
		var entries [][]byte
		for room := page.Size - 200; ; {
			k := make([]byte, 1+rng.Intn(60))
			rng.Read(k)
			e := encodeBranchEntry(k, page.ID(rng.Intn(1000)))
			if hdr.isLeaf() {
				v := make([]byte, rng.Intn(300))
				rng.Read(v)
				e = encodeLeafEntry(k, v)
			}
			if room -= len(e) + 4; room < 0 || rng.Intn(100) == 0 {
				break
			}
			entries = append(entries, e)
		}
		b := buildNodeImage(page.ID(rng.Intn(1<<20)), uint32(rng.Intn(50)), hdr, entries)
		return bytes.Equal(redone(b), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
