package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/perf/devshim"
)

// epoch is the zero of every timestamp the benchmark takes; readings
// are monotonic nanoseconds since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary. Spans of one
// transaction share txn; parent is 0 for a root span and for device
// spans, which run on engine goroutines and belong to no transaction.
type span struct {
	id, parent, txn uint64
	name            string
	start, end      int64
	conn, seq       int32 // wire spans: connection number and request sequence
	bytes           int64 // wire and device spans
}

// maxSpans bounds one recorder's pre-allocated buffer; spans beyond it
// are counted as dropped, never reallocated mid-run.
const maxSpans = 600_000

// recorder is an append-only span buffer with its own id space. A client
// recorder is used by one goroutine; the device and server recorders
// are shared and take the lock.
type recorder struct {
	mu      sync.Mutex
	shared  bool
	base    uint64 // high bits of every id this recorder hands out
	n       uint64
	spans   []span
	dropped int
}

func newRecorder(index int, shared bool) *recorder {
	return &recorder{shared: shared, base: uint64(index+1) << 40, spans: make([]span, 0, maxSpans)}
}

// add appends s, giving it the recorder's next id unless it has one.
func (r *recorder) add(s span) uint64 {
	if r.shared {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if s.id == 0 {
		r.n++
		s.id = r.base | r.n
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return s.id
	}
	r.spans = append(r.spans, s)
	return s.id
}

// txnTrace is the handle a traced transaction records its child spans
// through. A nil *txnTrace is an untraced transaction: every method is
// a no-op and now reads no clock.
type txnTrace struct {
	rec       *recorder
	root      uint64
	childTime int64
}

// begin opens a traced transaction; its root span is written by finish.
func (r *recorder) begin() *txnTrace {
	r.n++
	return &txnTrace{rec: r, root: r.base | r.n}
}

func (t *txnTrace) now() int64 {
	if t == nil {
		return 0
	}
	return nowNs()
}

// child records a completed child span that started at start.
func (t *txnTrace) child(name string, start int64) {
	if t == nil {
		return
	}
	t.childSpan(span{name: name, start: start, end: nowNs()})
}

func (t *txnTrace) childSpan(s span) {
	s.parent, s.txn = t.root, t.root
	t.childTime += s.end - s.start
	t.rec.add(s)
}

// finish writes the root span and returns the transaction's self time:
// its duration minus the time its children cover (children of one
// transaction never overlap — a client runs one call at a time).
func (t *txnTrace) finish(name string, start, end int64) int64 {
	t.rec.add(span{id: t.root, txn: t.root, name: name, start: start, end: end})
	return end - start - t.childTime
}

// deviceSink adapts a shared recorder to the device shim's event sink.
func deviceSink(r *recorder) func(devshim.Event) {
	return func(ev devshim.Event) {
		r.add(span{name: ev.Kind.String(), start: ev.Start, end: ev.End, bytes: ev.Bytes})
	}
}

// writeSpans writes every recorder's spans as JSON lines. It runs after
// the measured run, never during it.
func writeSpans(path string, recs []*recorder) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, r := range recs {
		for i := range r.spans {
			s := &r.spans[i]
			b = append(b[:0], `{"id":`...)
			b = strconv.AppendUint(b, s.id, 10)
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, s.parent, 10)
			b = append(b, `,"txn":`...)
			b = strconv.AppendUint(b, s.txn, 10)
			b = append(b, `,"name":"`...)
			b = append(b, s.name...)
			b = append(b, `","start_ns":`...)
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, `,"end_ns":`...)
			b = strconv.AppendInt(b, s.end, 10)
			if s.conn != 0 {
				b = append(b, `,"conn":`...)
				b = strconv.AppendInt(b, int64(s.conn), 10)
				b = append(b, `,"seq":`...)
				b = strconv.AppendInt(b, int64(s.seq), 10)
			}
			if s.bytes != 0 {
				b = append(b, `,"bytes":`...)
				b = strconv.AppendInt(b, s.bytes, 10)
			}
			b = append(b, "}\n"...)
			if _, err := w.Write(b); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
