//go:build race

package buffer

import "repro/internal/page"

// FixOpt under the race detector: a true optimistic read is a data race
// by construction (speculative reads concurrent with writer mutations,
// discarded on validation failure), which the detector would rightly
// flag. Race-instrumented builds therefore degrade to a conditional
// pinned SH fix — nothing blocks, the caller's optimistic control flow
// (validation, restarts, fallback) is exercised unchanged, but every
// read is synchronized. ok=false on any contention, exactly like the
// fast path, which sets the reference bit and the hot-array slot the
// same way.
func (p *Pool) FixOpt(pid page.ID) (OptRef, bool) {
	if p.closed.Load() || pid == page.InvalidID {
		return OptRef{}, false
	}
	idx, ok := p.lookupFrame(pid)
	if !ok {
		return OptRef{}, false
	}
	f := p.frames[idx]
	if !f.pin.pinIfPinned() && !f.pin.tryPin() {
		return OptRef{}, false // frozen by an evictor
	}
	if f.PID() != pid {
		f.pin.unpin()
		return OptRef{}, false
	}
	if !f.latch.TryLatchSH() {
		f.pin.unpin()
		return OptRef{}, false
	}
	if f.PID() != pid {
		// Dumped by a failed load between the pinned ID check and the
		// latch; the fast path catches this via version validation.
		f.latch.UnlatchSH()
		f.pin.unpin()
		return OptRef{}, false
	}
	f.touch()
	p.hotRecord(pid, idx)
	return OptRef{f: f, ver: f.latch.Version(), pinned: true}, true
}
