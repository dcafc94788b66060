//go:build race

package tx

import (
	"repro/internal/lock"
	"repro/internal/page"
)

// poison overwrites o's buffers before reset empties them, so that a
// reference its transaction kept past its end reads garbage under the
// race detector's test runs instead of whatever the next borrower wrote.
func poison(o *owned) {
	a := o.arena.buf[:cap(o.arena.buf)]
	for i := range a {
		a[i] = 0xA5
	}
	l := o.locks[:cap(o.locks)]
	for i := range l {
		l[i] = lock.RowName(^uint32(0), page.RID{Page: ^page.ID(0), Slot: 0xA5A5})
	}
	b := o.logScratch.Buf[:cap(o.logScratch.Buf)]
	for i := range b {
		b[i] = 0xA5
	}
}
