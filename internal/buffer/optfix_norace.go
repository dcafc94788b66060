//go:build !race

package buffer

import "repro/internal/page"

// FixOpt returns an optimistic reference to pid if it is cached and not
// currently write-latched. It performs no pin-count or latch RMW, which is
// the whole point: read-mostly inner-node traffic stops ping-ponging the
// frame's cache line. Like a pinned hit it sets the CLOCK reference bit
// (touch) and records the page in the hot array, each only when it is
// not so already: the hit keeps its page in the pool and its next lookup
// off the page table, and a repeated hit writes nothing.
//
// ok=false means "take the pinned path": the page is absent, mid-load,
// mid-eviction, or write-latched.
func (p *Pool) FixOpt(pid page.ID) (OptRef, bool) {
	if p.closed.Load() || pid == page.InvalidID {
		return OptRef{}, false
	}
	idx, ok := p.lookupFrame(pid)
	if !ok {
		return OptRef{}, false
	}
	f := p.frames[idx]
	ver, ok := f.latch.OptRead()
	if !ok {
		return OptRef{}, false
	}
	// The identity check runs after the version sample: if the frame is
	// recycled from here on, the EX latch the pool holds while recycling
	// bumps the version and Validate fails.
	if f.PID() != pid {
		return OptRef{}, false
	}
	f.touch()
	p.hotRecord(pid, idx)
	return OptRef{f: f, ver: ver}, true
}
