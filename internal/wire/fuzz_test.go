package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: torn
// headers, torn bodies, oversized announcements and garbage must all
// surface as errors — never a panic, and never an allocation larger
// than MaxFrame.
func FuzzReadFrame(f *testing.F) {
	good := AppendRequest(nil, OpPing, 1, nil)
	var framed bytes.Buffer
	_ = WriteFrame(&framed, good)
	f.Add(framed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0})                   // torn header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized announcement
	f.Add([]byte{0, 0, 0, 10, 1, 2, 3})   // torn body
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		r := bytes.NewReader(data)
		for {
			p, err := ReadFrame(r, &buf)
			if err != nil {
				break
			}
			if len(p) > MaxFrame {
				t.Fatalf("frame larger than cap: %d", len(p))
			}
			// Whatever decoded must re-encode losslessly when valid.
			if req, err := ParseRequest(p); err == nil {
				re := AppendRequest(nil, req.Op, req.Session, req.Body)
				if !bytes.Equal(re, p) {
					t.Fatalf("request re-encode mismatch")
				}
			}
		}
		if cap(buf) > MaxFrame {
			t.Fatalf("reader allocated %d > MaxFrame", cap(buf))
		}
	})
}

// FuzzParseRequest hammers the payload parser directly.
func FuzzParseRequest(f *testing.F) {
	f.Add(AppendRequest(nil, OpIdxGet, 3, []byte("key"))) // an entry kind: refused
	f.Add(AppendRequest(nil, OpResolve, 3, []byte("name")))
	f.Add([]byte{Version, byte(OpBatch), 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		if !req.Op.Valid() {
			t.Fatalf("parser accepted invalid opcode %d", req.Op)
		}
	})
}

// FuzzDecodeBatch hammers the batch decoder: a hostile count or length
// prefix must not panic or drive allocations past the frame it arrived
// in (lengths are bounded by the remaining input).
func FuzzDecodeBatch(f *testing.F) {
	var e Enc
	_ = AppendBatch(&e, BatchSession|BatchBegin|BatchCommit, []DataOp{
		{Kind: OpIdxGet, Store: 1, Key: []byte("k")},
		{Kind: OpIdxInsert, Store: 1, Key: []byte("k"), Val: []byte("v")},
		{Kind: OpHeapUpdate, Store: 2, RID: RID{Page: 9, Slot: 1}, Val: []byte("row")},
		{Kind: OpIdxScan, Store: 3, Key: []byte("a"), Val: []byte("b"), Limit: 4},
	})
	f.Add(e.B)
	f.Add([]byte{BatchUpdate, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if len(b.Ops) > MaxBatchOps {
			t.Fatalf("decoder accepted %d ops", len(b.Ops))
		}
		// A successfully decoded batch must re-encode and re-decode to
		// the same op list.
		var re Enc
		if err := AppendBatch(&re, b.Flags, b.Ops); err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := DecodeBatch(re.B)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(b2.Ops) != len(b.Ops) || b2.Flags != b.Flags {
			t.Fatalf("re-decode mismatch")
		}
	})
}
