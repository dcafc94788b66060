package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendRequest(nil, OpBatch, 7, []byte{1, 2, 3})
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	got, err := ReadFrame(&buf, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseRequest(got)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpBatch || req.Session != 7 || !bytes.Equal(req.Body, []byte{1, 2, 3}) {
		t.Fatalf("round trip mismatch: %+v", req)
	}
}

func TestFrameOversizedHeaderRejectedBeforeAlloc(t *testing.T) {
	// A 4 GiB announcement must fail with ErrTooLarge without reading
	// (or allocating) the body.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var scratch []byte
	_, err := ReadFrame(bytes.NewReader(hdr), &scratch)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if scratch != nil {
		t.Fatalf("buffer allocated for oversized frame: %d bytes", cap(scratch))
	}
}

func TestFrameTornBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	var scratch []byte
	_, err := ReadFrame(bytes.NewReader(torn), &scratch)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestParseRequestRejects(t *testing.T) {
	cases := [][]byte{
		nil,                            // empty
		{Version, byte(OpPing)},        // short header
		{99, byte(OpPing), 0, 0, 0, 0}, // bad version
		{Version, 0, 0, 0, 0, 0},       // invalid opcode 0
		{Version, byte(OpIdxGetU) + 1, 0, 0, 0, 0}, // invalid opcode high
		{Version, 3, 0, 0, 0, 0},                   // retired: begin
		{Version, 4, 0, 0, 0, 0},                   // retired: commit
		{Version, byte(OpIdxGet), 0, 0, 0, 0},      // a batch entry kind, not a request
	}
	for i, p := range cases {
		if _, err := ParseRequest(p); err == nil {
			t.Errorf("case %d: malformed request accepted", i)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	p := AppendResponse(nil, StatusDeadlock, FlagTxAborted, 42, []byte("victim"))
	resp, err := ParseResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDeadlock || resp.Flags != FlagTxAborted || resp.Session != 42 || string(resp.Body) != "victim" {
		t.Fatalf("round trip mismatch: %+v", resp)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ops := []DataOp{
		{Kind: OpIdxGet, Store: 3, Key: []byte("k1")},
		{Kind: OpIdxInsert, Store: 3, Key: []byte("k2"), Val: []byte("v2")},
		{Kind: OpIdxUpdate, Store: 4, Key: []byte("k3"), Val: []byte("v3")},
		{Kind: OpIdxDelete, Store: 4, Key: []byte("k4")},
		{Kind: OpIdxScan, Store: 5, Key: []byte("a"), Val: []byte("z"), Limit: 10},
		{Kind: OpHeapInsert, Store: 6, Val: []byte("row")},
		{Kind: OpHeapGet, Store: 6, RID: RID{Page: 77, Slot: 3}},
		{Kind: OpHeapUpdate, Store: 6, RID: RID{Page: 77, Slot: 3}, Val: []byte("row2")},
		{Kind: OpHeapDelete, Store: 6, RID: RID{Page: 77, Slot: 4}},
	}
	var e Enc
	if err := AppendBatch(&e, BatchSession|BatchBegin|BatchCommit, ops); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(e.B)
	if err != nil {
		t.Fatal(err)
	}
	if b.Flags != BatchSession|BatchBegin|BatchCommit || len(b.Ops) != len(ops) {
		t.Fatalf("flags/count mismatch: %+v", b)
	}
	for i := range ops {
		got, want := b.Ops[i], ops[i]
		if got.Kind != want.Kind || got.Store != want.Store ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Val, want.Val) ||
			got.RID != want.RID || got.Limit != want.Limit {
			t.Errorf("op %d mismatch: got %+v want %+v", i, got, want)
		}
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},                         // missing count
		{0, 0xff, 0xff},             // count 65535 > MaxBatchOps
		{0, 0, 1},                   // one op, no kind
		{BatchModeMask, 0, 0},       // a mode that does not exist
		{0, 0, 1, byte(OpRollback)}, // non-data op in a batch
		{0, 0, 1, byte(OpIdxGet), 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, // lying length prefix
	}
	for i, body := range cases {
		if _, err := DecodeBatch(body); err == nil {
			t.Errorf("case %d: garbage batch accepted", i)
		}
	}
}

func TestDecBytesBoundedByInput(t *testing.T) {
	// A length prefix claiming 4 GiB with a 3-byte remainder must fail,
	// not allocate.
	var e Enc
	e.U32(0xffffffff)
	e.B = append(e.B, 1, 2, 3)
	d := NewDec(e.B)
	if b := d.Bytes(); b != nil || d.Err == nil {
		t.Fatalf("lying prefix decoded: %v err=%v", b, d.Err)
	}
}
