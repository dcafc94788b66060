package buffer

import (
	"sync"

	"repro/internal/page"
)

// transitSet tracks pages that are "in transit": being written out
// (in-transit-out) or read in (in-transit-in). The original Shore kept one
// global linked list; §6.2.3 describes breaking it into many small lists
// (128 in Shore-MT) and, with the bypass optimization, keeping only dirty
// evictions in it at all — so each list is nearly always empty.
//
// What an entry under pid means, by Options.TransitBypass:
//
//	     in (install)                      out (evict of a dirty victim)
//	off  pid is unmapped and being read:   pid is mapped to a leaving frame
//	     begin → read → publish → end      and being written: begin → write
//	on   none: the mapping is published    → unmap → end (a failed write
//	     before the read and the frame's   skips the unmap)
//	     EX latch holds visitors
//
// There is at most one entry per pid, and whoever finds one that is not
// its own parks on it (Pool.awaitTransit, install) — except an evictor,
// which may hold a clock lock and skips that victim (frame.go, R2). Cleaner
// and FlushAll writes register nothing: they write a resident, pinned
// frame, which no loader can be reading from the volume.
type transitSet struct {
	parts []transitPart
	mask  uint64
}

type transitPart struct {
	mu sync.Mutex
	m  map[page.ID]*transitEntry
}

type transitEntry struct {
	done chan struct{} // closed when the transit completes
}

// newTransitSet builds a set with the given number of partitions (rounded
// up to a power of two; 1 reproduces the original single global list).
func newTransitSet(partitions int) *transitSet {
	n := 1
	for n < partitions {
		n <<= 1
	}
	t := &transitSet{parts: make([]transitPart, n), mask: uint64(n - 1)}
	for i := range t.parts {
		t.parts[i].m = make(map[page.ID]*transitEntry)
	}
	return t
}

func (t *transitSet) part(pid page.ID) *transitPart {
	h := uint64(pid) * 0x9e3779b97f4a7c15
	return &t.parts[(h>>32)&t.mask]
}

// begin registers pid as in transit. If it already is, begin returns the
// existing entry and false (the caller should wait on it instead).
func (t *transitSet) begin(pid page.ID) (*transitEntry, bool) {
	p := t.part(pid)
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.m[pid]; ok {
		return e, false
	}
	e := &transitEntry{done: make(chan struct{})}
	p.m[pid] = e
	return e, true
}

// end completes pid's transit and wakes all waiters.
func (t *transitSet) end(pid page.ID, e *transitEntry) {
	p := t.part(pid)
	p.mu.Lock()
	delete(p.m, pid)
	p.mu.Unlock()
	close(e.done)
}

// lookup returns the in-flight entry for pid, if any.
func (t *transitSet) lookup(pid page.ID) (*transitEntry, bool) {
	p := t.part(pid)
	p.mu.Lock()
	e, ok := p.m[pid]
	p.mu.Unlock()
	return e, ok
}

// wait blocks until e's transit completes.
func (e *transitEntry) wait() { <-e.done }
