package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes, at an arbitrary LSN, to the
// log-record decoder: this is the exact surface recovery exposes to
// whatever survived a crash. Invalid type bytes, hostile or non-minimal
// uvarints, back-links before the log's start and truncations must all
// surface as errors — never a panic — and anything the decoder accepts
// must re-encode at the same LSN byte-identically, since recovery trusts
// accepted records enough to replay them.
func FuzzDecodeRecord(f *testing.F) {
	seed := func(r *Record) { f.Add(encode(r), uint64(r.LSN)) }
	seed(&Record{LSN: 4096, Type: RecUpdate, TxID: 7, PrevLSN: 3990, Page: 3, Redo: []byte("redo"), Undo: []byte("undo")})
	seed(&Record{LSN: 1 << 20, Type: RecCLR, TxID: 2, PrevLSN: 1<<20 - 200, UndoNext: 55, Page: 9, Redo: []byte("compensate")})
	seed(&Record{LSN: 20000, Type: RecTxCommit, TxID: 300, PrevLSN: 20000 - 128})
	seed(&Record{LSN: logHeaderSize, Type: RecCkptEnd, Redo: (&CheckpointData{BeginLSN: 8}).Encode()})
	f.Add([]byte{}, uint64(logHeaderSize))
	f.Add(bytes.Repeat([]byte{0xff}, maxHeaderSize+recTrailerSize), uint64(1<<30))
	f.Add(bytes.Repeat([]byte{0x00}, maxHeaderSize+recTrailerSize), uint64(1<<30))

	f.Fuzz(func(t *testing.T, data []byte, lsn uint64) {
		rec, n, err := DecodeRecord(data, LSN(lsn))
		if err != nil {
			return
		}
		if n > len(data) || rec.LSN != LSN(lsn) {
			t.Fatalf("decoder consumed %d of %d bytes, record at %v for %d", n, len(data), rec.LSN, lsn)
		}
		if rec.Type < RecUpdate || rec.Type > RecCkptEnd {
			t.Fatalf("decoder accepted invalid record type %d", rec.Type)
		}
		if len(rec.Redo)+len(rec.Undo) > MaxPayload {
			t.Fatalf("decoder accepted oversized payload (%d redo, %d undo)", len(rec.Redo), len(rec.Undo))
		}
		// An accepted record is one a log manager could have written, and
		// re-encodes to the exact bytes it was decoded from: recovery
		// re-reads records by offset and length, so any drift would shift
		// every LSN after it.
		if !linkOK(rec.LSN, rec.PrevLSN) || !linkOK(rec.LSN, rec.UndoNext) {
			t.Fatalf("decoder accepted links %v/%v at %v", rec.PrevLSN, rec.UndoNext, rec.LSN)
		}
		if re := encode(rec); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch: %d bytes vs %d accepted", len(re), n)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary payloads to the checkpoint decoder:
// no input may panic it, and one it accepts must re-encode to the same
// bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add((&CheckpointData{}).Encode())
	f.Add((&CheckpointData{
		BeginLSN: 99,
		Txs:      []TxInfo{{TxID: 1, LastLSN: 10, UndoNext: 5}},
		Dirty:    []DirtyInfo{{Page: 7, RecLSN: 3}, {Page: 8, RecLSN: 4}},
	}).Encode())
	overflow := make([]byte, 24) // 24 + nTx*24 wraps back to 24
	binary.LittleEndian.PutUint64(overflow[8:], 1<<62)
	f.Add(overflow)

	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		if re := c.Encode(); !bytes.Equal(re, b) {
			t.Fatalf("re-encode of accepted checkpoint: %d bytes vs %d", len(re), len(b))
		}
	})
}
