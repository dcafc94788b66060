package wal

import (
	"sync/atomic"
	"time"
)

// FlushDaemon is the harden stage of the staged commit pipeline: a
// dedicated goroutine that batches outstanding commit LSNs and advances
// the durable horizon with as few Flush calls as possible. Committers
// hand it their commit LSN via Harden and learn about durability through
// the manager's Subscribe channel; they never issue a Flush themselves,
// so lock release does not have to wait behind log I/O.
//
// The daemon coalesces naturally: every Harden target that arrives while
// a Flush is in progress is absorbed into the next Flush, which covers
// the maximum of the batch in one store round trip (group commit, made
// asynchronous).
type FlushDaemon struct {
	mgr Manager

	req  chan LSN
	stop chan struct{}
	done chan struct{}

	interval time.Duration
	closed   atomic.Bool
	killed   atomic.Bool

	batches  atomic.Uint64
	requests atomic.Uint64
	maxBatch atomic.Uint64
}

// DaemonOptions configures a FlushDaemon.
type DaemonOptions struct {
	// Interval is an optional batching window: after the first pending
	// target arrives the daemon waits up to Interval for more before
	// flushing, trading commit latency for bigger batches. Zero flushes
	// as soon as the daemon is free (latency-optimal; batching still
	// happens whenever a flush is already in flight).
	Interval time.Duration
	// QueueDepth bounds pending Harden targets (default 1024). Harden
	// blocks when the queue is full, which back-pressures committers.
	QueueDepth int
}

// DaemonStats reports flush-daemon activity.
type DaemonStats struct {
	Batches   uint64 // flushes issued
	Requests  uint64 // harden targets received
	MaxBatch  uint64 // largest number of targets covered by one flush
	DurableTo LSN    // manager's durable boundary at snapshot time
}

// NewFlushDaemon starts a flush daemon over mgr.
func NewFlushDaemon(mgr Manager, opts DaemonOptions) *FlushDaemon {
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	d := &FlushDaemon{
		mgr:      mgr,
		req:      make(chan LSN, depth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		interval: opts.Interval,
	}
	go d.run()
	return d
}

// Harden asks the daemon to make every record with LSN < upTo durable and
// returns a channel that fires exactly once: nil when durable, the device
// error when the log device has failed, or ErrLogClosed when the daemon
// can no longer guarantee it. The flush itself is batched with other
// callers'.
func (d *FlushDaemon) Harden(upTo LSN) <-chan error {
	ch := d.mgr.Subscribe(upTo)
	if d.closed.Load() {
		// Usually the subscription resolved synchronously (durable, or
		// the manager failed it at close). But after Kill — crash
		// semantics without a manager close — it can still be pending
		// with nobody left to ever flush; resolve it as closed rather
		// than hand back a channel that never fires.
		return resolveOrClosed(ch)
	}
	d.requests.Add(1)
	select {
	case d.req <- upTo:
	case <-d.stop:
		// Lost the race with Close/Kill: the target never entered the
		// queue, so the final drain won't cover it either.
		return resolveOrClosed(ch)
	}
	return ch
}

// resolveOrClosed returns ch if it already holds a verdict, else a
// channel that fails immediately with ErrLogClosed (the daemon is gone;
// durability cannot be promised — the transaction stays in doubt for the
// caller, exactly as a crash would leave it).
func resolveOrClosed(ch <-chan error) <-chan error {
	select {
	case err := <-ch:
		out := make(chan error, 1)
		out <- err
		return out
	default:
		out := make(chan error, 1)
		out <- ErrLogClosed
		return out
	}
}

// run is the daemon loop: gather a batch, flush its maximum, repeat.
func (d *FlushDaemon) run() {
	defer close(d.done)
	for {
		var target LSN
		select {
		case <-d.stop:
			d.finalFlush()
			return
		case target = <-d.req:
		}
		n := uint64(1)
		if d.interval > 0 {
			// Batching window: absorb targets arriving within interval.
			timer := time.NewTimer(d.interval)
		window:
			for {
				select {
				case t := <-d.req:
					n++
					if t > target {
						target = t
					}
				case <-timer.C:
					break window
				case <-d.stop:
					timer.Stop()
					d.flush(target, n)
					d.finalFlush()
					return
				}
			}
		}
		// Drain whatever else is already queued — this is where batching
		// comes from when no window is configured: targets that arrived
		// during the previous flush coalesce here.
	drain:
		for {
			select {
			case t := <-d.req:
				n++
				if t > target {
					target = t
				}
			default:
				break drain
			}
		}
		d.flush(target, n)
	}
}

// flush covers target and records batch stats. A flush that fails needs
// nothing more from the daemon: the manager latched the device error and
// has already failed every subscription Harden handed out, and will fail
// the later ones.
func (d *FlushDaemon) flush(target LSN, n uint64) {
	if d.killed.Load() {
		return // crash semantics: no flush on the way down
	}
	d.batches.Add(1)
	for {
		old := d.maxBatch.Load()
		if n <= old || d.maxBatch.CompareAndSwap(old, n) {
			break
		}
	}
	_ = d.mgr.Flush(target)
}

// finalFlush hardens everything still queued at close.
func (d *FlushDaemon) finalFlush() {
	if d.killed.Load() {
		return // crash semantics: abandon the queue
	}
	var target LSN
	n := uint64(0)
	for {
		select {
		case t := <-d.req:
			n++
			if t > target {
				target = t
			}
		default:
			if n > 0 {
				d.flush(target, n)
			}
			return
		}
	}
}

// Close stops the daemon after hardening everything already queued.
func (d *FlushDaemon) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.stop)
	<-d.done
	return nil
}

// Kill stops the daemon without flushing, simulating a crash: queued
// commit LSNs are abandoned and their transactions must be resolved by
// restart recovery.
func (d *FlushDaemon) Kill() {
	if d.closed.Swap(true) {
		return
	}
	d.killed.Store(true)
	close(d.stop)
	<-d.done
}

// Stats returns a counter snapshot.
func (d *FlushDaemon) Stats() DaemonStats {
	return DaemonStats{
		Batches:   d.batches.Load(),
		Requests:  d.requests.Load(),
		MaxBatch:  d.maxBatch.Load(),
		DurableTo: d.mgr.DurableLSN(),
	}
}
