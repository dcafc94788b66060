package dora

import (
	"sync"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/tx"
)

// message is one input-queue entry for a partition owner.
type message struct {
	kind   byte
	a      *action // msgAction, msgFinish
	txn    *Txn    // msgInput
	commit bool    // msgFinish
}

const (
	msgAction = byte(iota + 1) // new action to admit
	msgInput                   // a producer published txn's input
	msgFinish                  // rendezvous decision for one local action
)

// holder records one granted lock: which action holds the key and in
// what (supremum) mode. Holders are per action, not per transaction, so
// two actions of one transaction on the same partition release their
// own grants independently.
type holder struct {
	a    *action
	mode lock.Mode
}

// lockEntry is a thread-local lock table slot: granted holders only
// (waiters live in the parked list, in arrival order).
type lockEntry struct {
	holders []holder
}

// partition is one logical partition: an input queue fed by submitters
// and a single owner goroutine that runs everything else. The lock
// table, parked lists, and all action state are touched only by the
// owner — no CAS, no latches.
type partition struct {
	x  *Executor
	id int

	// Input queue. The only shared state; everything below mu's block
	// is owner-only.
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []message
	queueHW int64
	closed  bool

	// Owner-only state.
	locks         map[uint64]*lockEntry
	parked        []*action // arrival order (FIFO fairness)
	awaitingInput []*action // granted dependents parked for their input
	dispatching   bool
	redispatch    bool

	// Counters. routed is bumped by submitters; the rest by the owner —
	// atomics only so Stats() can read them from outside.
	routed     atomic.Uint64
	acquires   atomic.Uint64
	lockWaits  atomic.Uint64
	inputWaits atomic.Uint64
	commits    atomic.Uint64
	aborts     atomic.Uint64

	exited chan struct{}
}

// enqueue appends m to the input queue and wakes the owner.
func (p *partition) enqueue(m message) {
	p.mu.Lock()
	p.queue = append(p.queue, m)
	if n := int64(len(p.queue)); n > p.queueHW {
		p.queueHW = n
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// loop is the owner goroutine: swap the queue out under the mutex, then
// process the batch with no shared state in sight.
func (p *partition) loop() {
	defer close(p.exited)
	var spare []message
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = spare[:0]
		p.mu.Unlock()
		for i, m := range batch {
			batch[i] = message{}
			p.handle(m)
		}
		spare = batch
	}
}

func (p *partition) handle(m message) {
	switch m.kind {
	case msgAction:
		p.parked = append(p.parked, m.a)
		p.dispatch()
	case msgInput:
		p.wakeDependents(m.txn)
		p.dispatch()
	case msgFinish:
		p.finish(m.a, m.commit)
		p.dispatch()
	}
}

// dispatch grants and runs parked actions until no further progress is
// possible. It is re-entrancy-guarded: an inline finish (from a
// rendezvous decided mid-dispatch) releases locks and merely flags
// redispatch instead of recursing into the parked list it is iterating.
func (p *partition) dispatch() {
	if p.dispatching {
		p.redispatch = true
		return
	}
	p.dispatching = true
	for {
		p.redispatch = false
		progress := p.scanParked()
		if !progress && !p.redispatch {
			break
		}
	}
	p.dispatching = false
}

// scanParked makes one granting pass over the parked list in arrival
// order, then starts every action it granted. Returns whether anything
// was granted.
func (p *partition) scanParked() bool {
	if len(p.parked) == 0 {
		return false
	}
	var granted, blocked []*action
	keep := p.parked[:0]
	for _, a := range p.parked {
		if p.grantable(a, blocked) {
			p.lockAll(a)
			granted = append(granted, a)
		} else {
			if !a.parkedOnce {
				a.parkedOnce = true
				p.lockWaits.Add(1)
			}
			keep = append(keep, a)
			blocked = append(blocked, a)
		}
	}
	for i := len(keep); i < len(p.parked); i++ {
		p.parked[i] = nil
	}
	p.parked = keep
	for _, a := range granted {
		p.start(a)
	}
	return len(granted) > 0
}

// grantable reports whether every lock of a is compatible with the
// current holders (all-or-nothing) and with every earlier-parked
// conflicting action (FIFO: no barging).
func (p *partition) grantable(a *action, blocked []*action) bool {
	for _, req := range a.locks {
		e := p.locks[req.Key]
		if e == nil {
			continue
		}
		for _, h := range e.holders {
			if h.a.txn != a.txn && !lock.Compatible(h.mode, req.Mode) {
				return false
			}
		}
	}
	for _, b := range blocked {
		if b.txn == a.txn {
			continue
		}
		for _, breq := range b.locks {
			for _, req := range a.locks {
				if breq.Key == req.Key &&
					(!lock.Compatible(breq.Mode, req.Mode) || !lock.Compatible(req.Mode, breq.Mode)) {
					return false
				}
			}
		}
	}
	return true
}

// lockAll records a's grants in the thread-local table (the request was
// already validated by grantable).
func (p *partition) lockAll(a *action) {
	for _, req := range a.locks {
		e := p.locks[req.Key]
		if e == nil {
			e = &lockEntry{}
			p.locks[req.Key] = e
		}
		merged := false
		for i := range e.holders {
			if e.holders[i].a == a {
				e.holders[i].mode = lock.Supremum(e.holders[i].mode, req.Mode)
				merged = true
				break
			}
		}
		if !merged {
			e.holders = append(e.holders, holder{a: a, mode: req.Mode})
		}
	}
	p.acquires.Add(uint64(len(a.locks)))
}

// start begins a's sub-transaction and runs its body — or parks it
// (granted) when its cross-partition input has not arrived yet.
func (p *partition) start(a *action) {
	t := a.txn
	if !t.failed.Load() {
		sub, err := p.x.env.Begin(t.ctx)
		if err != nil {
			a.err = err
			t.failed.Store(true)
		} else {
			a.sub = sub
			if a.dependent && !t.inputReady.Load() {
				// Park granted: the locks stay held, the body runs
				// when the producer's msgInput arrives. No lost
				// wakeup: the producer sets inputReady before
				// enqueueing msgInput, and this owner processes that
				// message strictly after the park.
				p.awaitingInput = append(p.awaitingInput, a)
				p.inputWaits.Add(1)
				return
			}
		}
	}
	p.execute(a)
}

// execute runs a's body (skipped once the transaction failed), notifies
// dependents if a produces the rendezvous input, and counts down.
func (p *partition) execute(a *action) {
	t := a.txn
	if !t.failed.Load() && a.run != nil && a.sub != nil {
		if err := a.run(t.ctx, a.sub, t.input.Load()); err != nil {
			a.err = err
			t.failed.Store(true)
		}
	}
	if a.produces {
		// Ready even on failure, so parked dependents wake, skip their
		// bodies, and keep the countdown honest.
		t.inputReady.Store(true)
		p.notifyInput(t)
	}
	if t.pending.Add(-1) == 0 {
		p.decide(t)
	}
}

// notifyInput posts msgInput to every other partition holding a
// dependent of t and wakes the local ones inline.
func (p *partition) notifyInput(t *Txn) {
	var seen []*partition
	for _, a := range t.actions {
		if !a.dependent || a.part == p {
			continue
		}
		dup := false
		for _, q := range seen {
			if q == a.part {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, a.part)
			a.part.enqueue(message{kind: msgInput, txn: t})
		}
	}
	p.wakeDependents(t)
}

// wakeDependents resumes every parked dependent of t on this partition.
func (p *partition) wakeDependents(t *Txn) {
	var wake []*action
	keep := p.awaitingInput[:0]
	for _, a := range p.awaitingInput {
		if a.txn == t {
			wake = append(wake, a)
		} else {
			keep = append(keep, a)
		}
	}
	for i := len(keep); i < len(p.awaitingInput); i++ {
		p.awaitingInput[i] = nil
	}
	p.awaitingInput = keep
	for _, a := range wake {
		p.execute(a)
	}
}

// decide is the rendezvous point: the last action to finish executing
// reads the collective decision and distributes it — inline for local
// actions, via msgFinish for remote ones.
func (p *partition) decide(t *Txn) {
	commit := !t.failed.Load()
	if commit && t.multi {
		var subs []*tx.Tx
		for _, a := range t.actions {
			if a.sub != nil && !a.readonly {
				subs = append(subs, a.sub)
			}
		}
		if len(subs) > 1 {
			if err := p.x.env.Precommit(subs); err != nil {
				t.actions[0].err, commit = err, false
			}
		}
	}
	if !commit {
		p.x.abortedTx.Add(1)
	}
	for _, a := range t.actions {
		if a.part == p {
			p.finish(a, commit)
		} else {
			a.part.enqueue(message{kind: msgFinish, a: a, commit: commit})
		}
	}
}

// finish applies the decision to one local action: commit or roll back
// its sub-transaction, release its thread-local locks, and resolve the
// submitter when it is the last action standing.
func (p *partition) finish(a *action, commit bool) {
	if a.sub != nil {
		var err error
		if commit {
			err = p.x.env.Commit(a.sub, a.readonly)
			p.commits.Add(1)
		} else {
			err = p.x.env.Abort(a.sub)
			p.aborts.Add(1)
		}
		if err != nil && a.err == nil {
			a.err = err
		}
		a.sub = nil
	}
	p.release(a)
	if t := a.txn; t.finishPending.Add(-1) == 0 {
		t.done <- t.result()
	}
}

// release drops a's grants from the thread-local table and re-runs
// dispatch (deferred to the guard when called from inside it).
func (p *partition) release(a *action) {
	for _, req := range a.locks {
		e := p.locks[req.Key]
		if e == nil {
			continue
		}
		for i := range e.holders {
			if e.holders[i].a == a {
				last := len(e.holders) - 1
				e.holders[i] = e.holders[last]
				e.holders[last] = holder{}
				e.holders = e.holders[:last]
				break
			}
		}
		if len(e.holders) == 0 {
			delete(p.locks, req.Key)
		}
	}
	p.dispatch()
}

// stats snapshots the partition's counters.
func (p *partition) stats() PartitionStats {
	p.mu.Lock()
	hw := p.queueHW
	p.mu.Unlock()
	return PartitionStats{
		Routed:         p.routed.Load(),
		Acquires:       p.acquires.Load(),
		LockWaits:      p.lockWaits.Load(),
		InputWaits:     p.inputWaits.Load(),
		Commits:        p.commits.Load(),
		Aborts:         p.aborts.Load(),
		QueueHighWater: hw,
	}
}
