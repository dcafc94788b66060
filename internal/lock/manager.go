package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/closed"
	"repro/internal/sync2"
)

// Errors returned by Lock.
var (
	ErrDeadlock = errors.New("lock: deadlock detected")
	ErrTimeout  = errors.New("lock: wait timed out")
	// ErrCanceled is returned when the caller's context is cancelled (or
	// its deadline passes) while the request is blocked. The underlying
	// context error (context.Canceled / context.DeadlineExceeded / the
	// cancellation cause) is wrapped, so errors.Is works against both
	// ErrCanceled and the context sentinel. The cancelled request is
	// dequeued cleanly: FIFO grant order and waits-for edges for everyone
	// behind it are unaffected.
	ErrCanceled = errors.New("lock: wait canceled")
	// ErrClosed ends every wait once the manager is closed, as a crash
	// does: the transactions holding the locks will never release them,
	// and restart recovery settles them instead.
	ErrClosed = fmt.Errorf("lock: manager %w", closed.Err)
)

// TableMode selects the latching granularity of the lock hash table,
// reproducing §7.5: "Like the bufferpool, the lock manager's hash table was
// protected by a single mutex. However, the lock manager code included
// support for a mutex per bucket, statically disabled by a single #define."
type TableMode int

// Table latching modes.
const (
	TableGlobal    TableMode = iota // one mutex for the whole table
	TablePerBucket                  // one mutex per bucket
)

// String names the table mode.
func (m TableMode) String() string {
	if m == TablePerBucket {
		return "perBucket"
	}
	return "global"
}

// Options configures a Manager.
type Options struct {
	Buckets        int           // hash buckets (default 1024)
	Table          TableMode     // latch granularity
	Pool           PoolKind      // request pool implementation
	DefaultTimeout time.Duration // wait bound; 0 means 500ms
}

// Stats reports lock-manager activity.
type Stats struct {
	Acquires    uint64 // granted lock requests (incl. re-grants/conversions); a transaction's when it ends (Fold)
	Waits       uint64 // requests that had to block
	Deadlocks   uint64 // requests aborted by the detector
	Timeouts    uint64 // requests aborted by timeout
	Cancels     uint64 // requests abandoned by context cancellation
	PoolAllocs  uint64 // request-pool misses
	ELRReleases uint64 // transactions that released locks before hardening
	CacheHits   uint64 // requests answered by the tx-private lock cache, never reaching the table
	// Escalations and EscalationsRefused count a transaction's tries to
	// trade its row locks on a store for one store lock (NoteEscalation).
	Escalations        uint64
	EscalationsRefused uint64
	// Live gauges, measured by walking the whole table under its
	// latches at Stats time: both must drop to zero once every
	// transaction has finished (leaked locks keep them non-zero, which
	// is exactly what the server's disconnect tests assert on).
	LiveHeads    uint64 // lock names with a non-empty request queue
	LiveRequests uint64 // granted + waiting requests across those queues
	Latch        sync2.Stats
}

// lockHead is the per-object lock state: an intrusive FIFO queue of
// requests, granted ones first in arrival order.
type lockHead struct {
	name  Name
	queue *request
	next  *lockHead // bucket chain
}

type bucket struct {
	latch sync2.Locker
	heads *lockHead
	// free recycles emptied lockHeads under the bucket latch: without
	// it every acquire/release cycle on a quiescent name allocates a
	// fresh head (removeHeadIfEmpty drops it as soon as the queue
	// empties), which makes the lock table an allocation hotspot.
	free *lockHead
}

// Manager is the lock manager.
type Manager struct {
	opts    Options
	buckets []bucket
	global  sync2.Locker // used in TableGlobal mode
	pool    requestPool
	mask    uint64

	// waits-for graph for deadlock detection. Edge sets are plain
	// slices (possibly with duplicates) and the traversal scratch —
	// generation-marked seen maps plus DFS stacks — lives on the
	// manager, all under wfMu: a blocked request refreshes its edges
	// and re-probes every few milliseconds, and rebuilding maps per
	// probe made the detector an allocation hotspot.
	wfMu      sync.Mutex
	wf        map[uint64][]uint64
	wfFree    [][]uint64        // recycled edge slices
	cycSeen   map[uint64]uint64 // generation marks for cycleLocked
	cycGen    uint64
	cycStack  []uint64
	walkSeen  map[uint64]uint64 // generation marks for hasCycleVictim's walk
	walkGen   uint64
	walkStack []uint64

	acquires  atomic.Uint64
	waits     atomic.Uint64
	deadlocks atomic.Uint64
	timeouts  atomic.Uint64
	cancels   atomic.Uint64
	cacheHits atomic.Uint64
	escalated atomic.Uint64
	refused   atomic.Uint64

	// Early Lock Release (staged commit pipeline): the highest log
	// position released-before-hardening by any committing transaction.
	// Acquirers fold the current horizon into their own durability
	// dependency, ordering their commit acknowledgment behind every
	// releaser whose (still volatile) data they may have observed.
	elrHorizon  atomic.Uint64
	elrReleases atomic.Uint64

	closed    chan struct{} // closed by Close: every wait ends with ErrClosed
	closeOnce sync.Once
}

// NewManager builds a lock manager.
func NewManager(opts Options) *Manager {
	if opts.Buckets <= 0 {
		opts.Buckets = 1024
	}
	n := 16
	for n < opts.Buckets {
		n <<= 1
	}
	if opts.DefaultTimeout == 0 {
		opts.DefaultTimeout = 500 * time.Millisecond
	}
	m := &Manager{
		opts:     opts,
		buckets:  make([]bucket, n),
		pool:     newPool(opts.Pool),
		mask:     uint64(n - 1),
		wf:       make(map[uint64][]uint64),
		cycSeen:  make(map[uint64]uint64),
		walkSeen: make(map[uint64]uint64),
		closed:   make(chan struct{}),
	}
	if opts.Table == TableGlobal {
		m.global = new(sync2.HybridLock)
		for i := range m.buckets {
			m.buckets[i].latch = m.global
		}
	} else {
		for i := range m.buckets {
			m.buckets[i].latch = new(sync2.HybridLock)
		}
	}
	return m
}

func (m *Manager) bucketFor(n Name) *bucket {
	return &m.buckets[n.hashKey()&m.mask]
}

// findHead returns the head for name in b, creating it if asked.
// Caller holds the bucket latch.
func (b *bucket) findHead(name Name, create bool) *lockHead {
	for h := b.heads; h != nil; h = h.next {
		if h.name == name {
			return h
		}
	}
	if !create {
		return nil
	}
	h := b.free
	if h != nil {
		b.free = h.next
	} else {
		h = &lockHead{}
	}
	h.name = name
	h.next = b.heads
	b.heads = h
	return h
}

// removeHeadIfEmpty unlinks h from b when it has no requests, recycling
// it onto the bucket's free list.
func (b *bucket) removeHeadIfEmpty(h *lockHead) {
	if h.queue != nil {
		return
	}
	for pp := &b.heads; *pp != nil; pp = &(*pp).next {
		if *pp == h {
			*pp = h.next
			h.next = b.free
			b.free = h
			return
		}
	}
}

// grantedCompatible reports whether mode is compatible with every granted
// request except exclude.
func grantedCompatible(h *lockHead, mode Mode, exclude *request) bool {
	for r := h.queue; r != nil; r = r.next {
		if r == exclude || !r.granted {
			continue
		}
		if !Compatible(r.mode, mode) {
			return false
		}
	}
	return true
}

// hasWaiters reports whether any request is blocked on h: a fresh waiter
// or a pending conversion.
func hasWaiters(h *lockHead) bool {
	for r := h.queue; r != nil; r = r.next {
		if !r.granted || r.want != r.mode {
			return true
		}
	}
	return false
}

// grantWaiters re-examines h after a release or conversion and grants
// whatever can now proceed: conversions first (they already hold the
// object), then FIFO waiters until the first incompatible one.
// Caller holds the bucket latch. The manager is needed to retire the
// grantee's waits-for edges *at grant time*: clearing them only when the
// woken goroutine resumes leaves a window in which a stale edge
// ("A waits for B") coexists with the new reality ("B waits for A"),
// producing false deadlock cycles.
func (h *lockHead) grantWaiters(m *Manager) {
	grant := func(r *request) {
		m.clearEdges(r.txID)
		if r.wake != nil {
			close(r.wake)
			r.wake = nil
		}
	}
	// Conversions.
	for r := h.queue; r != nil; r = r.next {
		if r.granted && r.want != r.mode {
			if grantedCompatible(h, r.want, r) {
				r.mode = r.want
				grant(r)
			}
		}
	}
	// FIFO waiters: queue is in reverse arrival order (push-front), so
	// collect and scan oldest-first.
	var reqs []*request
	for r := h.queue; r != nil; r = r.next {
		reqs = append(reqs, r)
	}
	for i := len(reqs) - 1; i >= 0; i-- {
		r := reqs[i]
		if r.granted {
			continue
		}
		if grantedCompatible(h, r.want, r) {
			r.granted = true
			r.mode = r.want
			grant(r)
		} else {
			break // strict FIFO beyond the first blocked waiter
		}
	}
}

// holdersIncompatibleWith collects txIDs whose granted requests block mode.
func holdersIncompatibleWith(h *lockHead, mode Mode, exclude *request) []uint64 {
	var ids []uint64
	for r := h.queue; r != nil; r = r.next {
		if r == exclude || !r.granted {
			continue
		}
		if !Compatible(r.mode, mode) {
			ids = append(ids, r.txID)
		}
	}
	return ids
}

// blockersOf collects every transaction a fresh request r (wanting mode)
// waits on: granted holders whose mode conflicts, plus — because grants
// are strict FIFO — every earlier-arrived waiter or pending conversion,
// compatible or not (hasWaiters blocks r behind them regardless). The
// queue is push-front, so everything after r in the chain arrived before
// it. Without the waiter edges, a cycle that passes through a queued
// waiter (A holds x, B waits on x, C queued behind B while holding what
// A wants) is invisible to the detector and resolves only by timeout.
func blockersOf(h *lockHead, r *request, mode Mode) []uint64 {
	var ids []uint64
	for rr := r.next; rr != nil; rr = rr.next {
		if rr.granted && rr.want == rr.mode {
			if !Compatible(rr.mode, mode) {
				ids = append(ids, rr.txID)
			}
		} else if rr.txID != r.txID {
			ids = append(ids, rr.txID)
		}
	}
	return ids
}

// Lock acquires name in mode for txID, blocking until granted, deadlock,
// timeout (0 uses the default), or ctx cancellation — whichever comes
// first (the earliest of the ctx deadline and the timeout wins).
// Re-acquiring an equal-or-weaker mode is a no-op; a stronger mode
// performs a conversion. Cancellation returns ErrCanceled wrapping the
// context's error and dequeues the request promptly, leaving the queue
// grantable for every waiter behind it.
func (m *Manager) Lock(ctx context.Context, txID uint64, name Name, mode Mode, timeout time.Duration) error {
	err := m.lock(ctx, txID, name, mode, timeout)
	if err == nil && mode != NL {
		m.acquires.Add(1)
	}
	return err
}

// Acquire is Lock with the default timeout for a caller that counts its
// own grants: it leaves Stats' Acquires alone, and the caller adds its
// count with Fold. A transaction does, so that its acquire path writes no
// counter shared with every other. With noWait it grants only what Lock
// would grant without waiting, never enqueues, and otherwise returns
// ErrWouldBlock: callers holding page latches use it to avoid
// lock-waits-under-latch deadlocks.
func (m *Manager) Acquire(ctx context.Context, txID uint64, name Name, mode Mode, noWait bool) error {
	if !noWait {
		return m.lock(ctx, txID, name, mode, 0)
	}
	if mode == NL {
		return nil
	}
	b := m.bucketFor(name)
	b.latch.Lock()
	defer b.latch.Unlock()
	h := b.findHead(name, true)
	if _, _, ok := m.admit(h, txID, mode); ok {
		return nil
	}
	b.removeHeadIfEmpty(h)
	return ErrWouldBlock
}

// lock is Lock without the count.
func (m *Manager) lock(ctx context.Context, txID uint64, name Name, mode Mode, timeout time.Duration) error {
	if mode == NL {
		return nil
	}
	if err := ctx.Err(); err != nil {
		m.cancels.Add(1)
		return fmt.Errorf("%w: tx %d on %v: %w", ErrCanceled, txID, name, context.Cause(ctx))
	}
	if timeout == 0 {
		timeout = m.opts.DefaultTimeout
	}
	b := m.bucketFor(name)
	b.latch.Lock()
	h := b.findHead(name, true)
	mine, want, ok := m.admit(h, txID, mode)
	if ok {
		b.latch.Unlock()
		return nil
	}
	conversion := mine != nil
	var blockers []uint64
	if conversion {
		mine.want = want
		blockers = holdersIncompatibleWith(h, want, mine)
	} else {
		mine = m.pool.get()
		mine.txID, mine.want = txID, want
		h.push(mine)
		blockers = blockersOf(h, mine, want)
	}
	mine.wake = make(chan struct{})
	wake := mine.wake
	b.latch.Unlock()
	return m.wait(ctx, txID, name, mine, wake, blockers, timeout, conversion)
}

// admit is the one grant rule, shared by lock and a no-wait Acquire; the
// caller holds h's bucket latch. It finds txID's granted request on h and
// grants mode if it can without waiting:
//
//   - a granted request whose mode already covers mode: nothing to do;
//   - a granted request of a weaker mode: a conversion to the supremum,
//     granted when every other granted request is compatible with it;
//   - no request: a fresh one, granted when nobody is queued (grants are
//     strict FIFO) and every granted request is compatible with mode.
//
// A fresh grant takes a request from the pool and links it. A refusal
// changes nothing and takes nothing from the pool: it returns txID's
// granted request (nil for a fresh request) and the mode it must wait for.
func (m *Manager) admit(h *lockHead, txID uint64, mode Mode) (mine *request, want Mode, ok bool) {
	for r := h.queue; r != nil; r = r.next {
		if r.txID == txID && r.granted {
			mine = r
			break
		}
	}
	if mine != nil {
		want = Supremum(mine.mode, mode)
		if want != mine.mode {
			if !grantedCompatible(h, want, mine) {
				return mine, want, false
			}
			mine.mode, mine.want = want, want
		}
		return mine, want, true
	}
	if hasWaiters(h) || !grantedCompatible(h, mode, nil) {
		return nil, mode, false
	}
	r := m.pool.get()
	r.txID, r.mode, r.want, r.granted = txID, mode, mode, true
	h.push(r)
	return r, mode, true
}

// push links r at the front of h's queue (the queue is newest-first).
func (h *lockHead) push(r *request) {
	r.head = h
	r.next = h.queue
	h.queue = r
}

// detectPoll is how often a blocked request refreshes its waits-for
// edges and re-runs cycle detection while a cycle is suspected (two
// consecutive confirmations are needed, so real-deadlock latency is
// ~2×detectPoll). Waiters with no suspected cycle back their polling
// off exponentially to detectPollMax so long benign waits — the hot-lock
// queues this engine is built around — don't hammer the bucket latch and
// the waits-for mutex.
const (
	detectPoll    = 3 * time.Millisecond
	detectPollMax = 24 * time.Millisecond
)

// Close ends every wait, current and future, with ErrClosed. A grant that
// needs no wait is still made: it changes nothing but memory the crash is
// about to lose.
func (m *Manager) Close() { m.closeOnce.Do(func() { close(m.closed) }) }

// wait blocks txID's request until granted, deadlock, timeout, ctx
// cancellation or Close.
//
// The wait is a poll loop: every detectPoll the waiter re-derives its
// blockers from the live queue under the bucket latch and replaces its
// waits-for edges, then re-runs cycle detection. Deriving edges from
// current state (rather than a snapshot taken at enqueue) is what keeps
// the graph honest — snapshots go stale as earlier waiters are granted
// and re-queue, and a stale edge can both fabricate cycles (spurious
// victims) and hide real ones (timeout storms). A cycle must survive two
// consecutive accurate snapshots before its designated victim (largest
// txID: youngest-dies, so retry loops cannot livelock on mutual
// victimization) backs out; a non-victim that sees the cycle outlive many
// polls aborts itself as a fallback rather than stalling until the lock
// timeout.
func (m *Manager) wait(ctx context.Context, txID uint64, name Name, r *request, wake chan struct{}, blockers []uint64, timeout time.Duration, conversion bool) error {
	m.waits.Add(1)
	defer m.clearEdges(txID)
	m.setEdges(txID, blockers)
	deadline := time.Now().Add(timeout)
	suspicion := 0
	interval := detectPoll
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-wake:
			return nil
		case <-ctx.Done():
			return m.cancelFor(ctx, txID, name, r, wake, conversion)
		case <-m.closed:
			if m.finishWait(name, r, wake, conversion) {
				return nil // the grant raced the close: keep the lock
			}
			return fmt.Errorf("%w: tx %d on %v", ErrClosed, txID, name)
		case <-timer.C:
		}
		if !time.Now().Before(deadline) {
			if m.finishWait(name, r, wake, conversion) {
				return nil // the grant raced the timer: keep the lock
			}
			m.timeouts.Add(1)
			return fmt.Errorf("%w: tx %d on %v after %v", ErrTimeout, txID, name, timeout)
		}
		granted, cur := m.currentBlockers(name, r, wake, conversion)
		if granted {
			return nil
		}
		m.setEdges(txID, cur)
		cycle, victim := m.hasCycleVictim(txID)
		switch {
		case !cycle:
			suspicion = 0
			if interval < detectPollMax {
				interval *= 2
			}
		case victim && suspicion >= 1, suspicion >= 12:
			// Confirmed victim — or a cycle that outlived the whole
			// window because its victim slept past its own check.
			if m.finishWait(name, r, wake, conversion) {
				return nil // the grant raced the verdict: keep the lock
			}
			m.deadlocks.Add(1)
			return fmt.Errorf("%w: tx %d on %v", ErrDeadlock, txID, name)
		default:
			suspicion++
			interval = detectPoll // confirm quickly
		}
		timer.Reset(interval)
	}
}

// currentBlockers re-derives, under the bucket latch, the set of
// transactions r currently waits on — or reports that r has been granted
// meanwhile.
func (m *Manager) currentBlockers(name Name, r *request, wake chan struct{}, conversion bool) (granted bool, blockers []uint64) {
	b := m.bucketFor(name)
	b.latch.Lock()
	defer b.latch.Unlock()
	select {
	case <-wake:
		return true, nil
	default:
	}
	if conversion {
		return false, holdersIncompatibleWith(r.head, r.want, r)
	}
	return false, blockersOf(r.head, r, r.want)
}

// cancelFor resolves a wait whose context fired. A grant that raced the
// cancellation wins — the lock is kept and nil returned, so the caller's
// bookkeeping (2PL lock lists) stays consistent; the cancellation will
// surface at the next blocking point instead.
func (m *Manager) cancelFor(ctx context.Context, txID uint64, name Name, r *request, wake chan struct{}, conversion bool) error {
	if m.finishWait(name, r, wake, conversion) {
		return nil
	}
	m.cancels.Add(1)
	return fmt.Errorf("%w: tx %d on %v: %w", ErrCanceled, txID, name, context.Cause(ctx))
}

// finishWait concludes a wait the caller is abandoning (timeout,
// cancellation, or a deadlock verdict). The wake channel is re-checked
// under the bucket latch — grants happen under it, so the check is
// race-free: either the grant already won (report true, keep the lock) or
// the request is dequeued / the pending conversion reverted, and waiters
// behind it are re-examined so the queue stays grantable.
func (m *Manager) finishWait(name Name, r *request, wake chan struct{}, conversion bool) (granted bool) {
	b := m.bucketFor(name)
	b.latch.Lock()
	select {
	case <-wake:
		b.latch.Unlock()
		return true
	default:
	}
	m.cancelWaitLocked(b, r, conversion)
	b.latch.Unlock()
	return false
}

func (m *Manager) cancelWaitLocked(b *bucket, r *request, conversion bool) {
	h := r.head
	if conversion {
		// Keep the original granted mode; drop the conversion intent.
		r.want = r.mode
		r.wake = nil
	} else {
		unlinkRequest(h, r)
		m.pool.put(r)
	}
	h.grantWaiters(m)
	b.removeHeadIfEmpty(h)
}

func unlinkRequest(h *lockHead, r *request) {
	for pp := &h.queue; *pp != nil; pp = &(*pp).next {
		if *pp == r {
			*pp = r.next
			return
		}
	}
}

// ErrWouldBlock is returned by a no-wait Acquire when the request cannot
// be granted immediately.
var ErrWouldBlock = errors.New("lock: would block")

// RaiseELR publishes horizon as an early-release point before the caller
// drops a committing transaction's locks: the commit record covering
// horizon is in the log but possibly not durable yet. Later acquirers of
// any lock must treat the horizon as a durability dependency (see
// ELRHorizon). The horizon is manager-global — coarser than per-lock
// tracking, but safe, and commit-record ordering in the single log makes
// the over-approximation nearly free: a dependent's own commit LSN almost
// always exceeds it anyway.
func (m *Manager) RaiseELR(horizon uint64) {
	m.elrReleases.Add(1)
	for {
		old := m.elrHorizon.Load()
		if horizon <= old || m.elrHorizon.CompareAndSwap(old, horizon) {
			return
		}
	}
}

// ELRHorizon returns the current early-release horizon: the log position
// that must be durable before data guarded by any recently acquired lock
// may be considered committed.
func (m *Manager) ELRHorizon() uint64 { return m.elrHorizon.Load() }

// Unlock releases txID's lock on name. Unlocking a name not held is a
// no-op (idempotent release simplifies abort paths).
func (m *Manager) Unlock(txID uint64, name Name) {
	b := m.bucketFor(name)
	b.latch.Lock()
	h := b.findHead(name, false)
	if h == nil {
		b.latch.Unlock()
		return
	}
	var mine *request
	for r := h.queue; r != nil; r = r.next {
		if r.txID == txID && r.granted {
			mine = r
			break
		}
	}
	if mine == nil {
		b.latch.Unlock()
		return
	}
	unlinkRequest(h, mine)
	h.grantWaiters(m)
	b.removeHeadIfEmpty(h)
	b.latch.Unlock()
	m.pool.put(mine)
}

// Fold adds one transaction's counts to the manager's: the grants it got
// through Acquire and the requests its private lock cache answered. The
// engine counts both on plain per-transaction fields (the acquire path
// must not touch a shared cache line) and reports them in one call at
// release time.
func (m *Manager) Fold(acquires, cacheHits uint64) {
	if acquires > 0 {
		m.acquires.Add(acquires)
	}
	if cacheHits > 0 {
		m.cacheHits.Add(cacheHits)
	}
}

// NoteEscalation counts one escalation try by the engine, granted or
// refused. Escalation is the engine's policy (a no-wait Acquire on the
// store); the manager only keeps the counts.
func (m *Manager) NoteEscalation(granted bool) {
	if granted {
		m.escalated.Add(1)
	} else {
		m.refused.Add(1)
	}
}

// Holds returns the mode txID currently holds on name (NL if none).
func (m *Manager) Holds(txID uint64, name Name) Mode {
	b := m.bucketFor(name)
	b.latch.Lock()
	defer b.latch.Unlock()
	h := b.findHead(name, false)
	if h == nil {
		return NL
	}
	for r := h.queue; r != nil; r = r.next {
		if r.txID == txID && r.granted {
			return r.mode
		}
	}
	return NL
}

// setEdges replaces txID's outgoing waits-for edges with blockers,
// reusing the transaction's previous edge slice (or a recycled one):
// the common caller is a blocked request refreshing the same edge set
// every poll, which should not allocate.
func (m *Manager) setEdges(txID uint64, blockers []uint64) {
	m.wfMu.Lock()
	set, ok := m.wf[txID]
	if !ok && len(m.wfFree) > 0 {
		set = m.wfFree[len(m.wfFree)-1]
		m.wfFree = m.wfFree[:len(m.wfFree)-1]
	}
	set = set[:0]
	for _, b := range blockers {
		if b != txID {
			set = append(set, b)
		}
	}
	m.wf[txID] = set
	m.wfMu.Unlock()
}

// hasCycleVictim re-runs cycle detection for txID and reports whether a
// cycle exists and whether txID should be its victim. Victim policy:
// youngest-dies — the largest transaction id on the cycle aborts, so
// exactly one participant backs out and mutual victimization (livelock
// under retry loops) cannot occur.
func (m *Manager) hasCycleVictim(txID uint64) (cycle, victim bool) {
	m.wfMu.Lock()
	defer m.wfMu.Unlock()
	if !m.cycleLocked(txID) {
		return false, false
	}
	// txID is on a cycle; find the cycle's members by walking edges
	// restricted to nodes that can reach txID (approximation: all nodes on
	// any path back to txID). Scratch is distinct from cycleLocked's —
	// the walk re-probes cycleLocked per candidate node.
	m.walkGen++
	if len(m.walkSeen) > seenHighWater {
		clear(m.walkSeen)
	}
	g := m.walkGen
	maxID := txID
	m.walkSeen[txID] = g
	stack := append(m.walkStack[:0], txID)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range m.wf[u] {
			if m.walkSeen[v] != g {
				m.walkSeen[v] = g
				stack = append(stack, v)
				if v > maxID && m.cycleLocked(v) {
					maxID = v
				}
			}
		}
	}
	m.walkStack = stack
	return true, txID == maxID
}

// seenHighWater bounds the generation-marked scratch maps: past it the
// map is cleared rather than carrying marks for every transaction that
// ever blocked.
const seenHighWater = 1 << 13

// cycleLocked reports whether a waits-for path leads from txID back to
// itself: an iterative DFS over manager-owned scratch (generation marks
// instead of a fresh map per probe). Caller holds wfMu.
func (m *Manager) cycleLocked(txID uint64) bool {
	m.cycGen++
	if len(m.cycSeen) > seenHighWater {
		clear(m.cycSeen)
	}
	g := m.cycGen
	stack := append(m.cycStack[:0], m.wf[txID]...)
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == txID {
			found = true
			break
		}
		if m.cycSeen[u] == g {
			continue
		}
		m.cycSeen[u] = g
		stack = append(stack, m.wf[u]...)
	}
	m.cycStack = stack
	return found
}

// clearEdges removes txID's outgoing waits-for edges, recycling the
// slice for the next setEdges.
func (m *Manager) clearEdges(txID uint64) {
	m.wfMu.Lock()
	if set, ok := m.wf[txID]; ok {
		delete(m.wf, txID)
		if cap(set) > 0 && len(m.wfFree) < 64 {
			m.wfFree = append(m.wfFree, set[:0])
		}
	}
	m.wfMu.Unlock()
}

// Stats returns a snapshot of lock-manager counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		Acquires:    m.acquires.Load(),
		Waits:       m.waits.Load(),
		Deadlocks:   m.deadlocks.Load(),
		Timeouts:    m.timeouts.Load(),
		Cancels:     m.cancels.Load(),
		PoolAllocs:  m.pool.allocations(),
		ELRReleases: m.elrReleases.Load(),
		CacheHits:   m.cacheHits.Load(),

		Escalations:        m.escalated.Load(),
		EscalationsRefused: m.refused.Load(),
	}
	if m.opts.Table == TableGlobal {
		s.Latch = m.global.Stats()
		// One latch guards every chain: a single critical section
		// snapshots the whole table.
		m.global.Lock()
		for i := range m.buckets {
			countChain(m.buckets[i].heads, &s)
		}
		m.global.Unlock()
	} else {
		for i := range m.buckets {
			st := m.buckets[i].latch.Stats()
			s.Latch.Acquisitions += st.Acquisitions
			s.Latch.Contended += st.Contended
			s.Latch.SpinIters += st.SpinIters
		}
		// Per-bucket latches: snapshot bucket by bucket. The gauges are
		// not a single consistent cut across buckets, but they are exact
		// on a quiescent table — the case the zero assertion cares about.
		for i := range m.buckets {
			b := &m.buckets[i]
			b.latch.Lock()
			countChain(b.heads, &s)
			b.latch.Unlock()
		}
	}
	return s
}

// countChain folds one bucket chain into the live gauges. Empty heads
// (recycled on the free list, or mid-removal) do not count.
func countChain(h *lockHead, s *Stats) {
	for ; h != nil; h = h.next {
		if h.queue == nil {
			continue
		}
		s.LiveHeads++
		for r := h.queue; r != nil; r = r.next {
			s.LiveRequests++
		}
	}
}
