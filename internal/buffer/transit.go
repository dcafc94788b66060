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
// its own parks on it (Pool.awaitTransit) — except an evictor,
// which may hold a clock lock and skips that victim (frame.go, R2). Cleaner
// and FlushAll writes register nothing: they write a resident, pinned
// frame, which no loader can be reading from the volume.
type transitSet struct {
	parts []transitPart
	mask  uint64
}

type transitPart struct {
	mu sync.Mutex
	m  map[page.ID]chan struct{} // closed when the transit completes
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
		t.parts[i].m = make(map[page.ID]chan struct{})
	}
	return t
}

func (t *transitSet) part(pid page.ID) *transitPart {
	h := uint64(pid) * 0x9e3779b97f4a7c15
	return &t.parts[(h>>32)&t.mask]
}

// begin registers pid as in transit and reports whether it did; false
// means pid already is, in someone else's hands.
func (t *transitSet) begin(pid page.ID) bool {
	p := t.part(pid)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.m[pid]; ok {
		return false
	}
	p.m[pid] = make(chan struct{})
	return true
}

// end completes the transit its caller began under pid and wakes all
// waiters.
func (t *transitSet) end(pid page.ID) {
	p := t.part(pid)
	p.mu.Lock()
	done := p.m[pid]
	delete(p.m, pid)
	p.mu.Unlock()
	close(done)
}

// lookup returns the channel that pid's in-flight transit closes when it
// completes, nil if there is none.
func (t *transitSet) lookup(pid page.ID) chan struct{} {
	p := t.part(pid)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[pid]
}
