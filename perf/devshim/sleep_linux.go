package devshim

import (
	"syscall"
	"time"
)

// sleep blocks the calling thread in the kernel. time.Sleep cannot serve
// here: the Go runtime rounds a sub-millisecond timer up to the
// netpoller's millisecond granularity, so Sleep(100µs) on an idle
// processor takes about 1.06 ms (162 µs with nanosleep, measured on the
// reference host). The thread is parked, not spinning, so a waiting
// client still costs no CPU.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens one service time
}
