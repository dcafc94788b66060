// Package dora implements data-oriented transaction execution (Pandis,
// Johnson, Hardavellas, Ailamaki: "Data-Oriented Transaction Execution",
// VLDB 2010 — the Shore-MT authors' follow-up): instead of assigning
// threads to transactions and letting them contend on a shared lock
// table, the keyspace is split into logical partitions, each owned by a
// dedicated worker goroutine, and transactions are decomposed into
// per-partition actions routed to the owners' input queues. Because only
// the owner touches a partition's data, its lock table is thread-local —
// a plain map with no CAS, no latches, and no interaction with the
// shared lock manager.
//
// Cross-partition transactions rendezvous at commit: every action
// decrements a shared countdown when its body finishes, the last one
// decides commit-or-abort from the transaction's failure flag, and each
// partition applies the decision to its own sub-transaction locally.
//
// # Deadlock freedom
//
// Partition-local waits cannot deadlock because four rules keep the
// waits-for relation acyclic:
//
//  1. All-or-nothing granting: an action acquires all of its partition's
//     locks at once or holds none (a parked action holds nothing
//     locally), declared up front in its ActionSpec.
//  2. FIFO conflict granting: within a partition, an action never barges
//     past an earlier-parked action it conflicts with.
//  3. Canonical atomic submission: a multi-partition transaction
//     enqueues all of its actions, sorted by partition id, under one
//     global submit mutex — every partition therefore observes
//     cross-partition transactions in the same global order, so two
//     transactions can never block each other in opposite orders on two
//     partitions.
//  4. Owners never block: a dependent action whose cross-partition
//     input has not arrived parks *granted* (holding its locks) and is
//     resumed by the producer's input message; the owner goroutine moves
//     on to other work, so no owner ever waits on another owner.
//
// Single-partition transactions skip the submit mutex entirely — the
// common case pays one queue append and no shared synchronization
// beyond it.
package dora

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/closed"
	"repro/internal/lock"
	"repro/internal/tx"
)

// Errors returned by the executor.
var (
	ErrClosed     = fmt.Errorf("dora: executor %w", closed.Err)
	ErrNoActions  = errors.New("dora: transaction has no actions")
	ErrNoProducer = errors.New("dora: dependent action without a producer")
)

// Env is the storage engine seen by partition owners: each action runs
// inside its own engine sub-transaction, begun when the action's locks
// are granted and committed or rolled back when the transaction's
// rendezvous decides.
type Env interface {
	Begin(ctx context.Context) (*tx.Tx, error)
	Commit(t *tx.Tx, readonly bool) error
	Abort(t *tx.Tx) error
	// Precommit makes the writing sub-transactions of a cross-partition
	// transaction commit as one, before each partition finishes its own
	// with Commit: a crash must keep all of them or none.
	Precommit(ts []*tx.Tx) error
}

// Options configures an Executor.
type Options struct {
	// Partitions is the number of logical partitions (= owner
	// goroutines). 0 auto-scales to GOMAXPROCS, mirroring the buffer
	// pool's AutoShards.
	Partitions int
	// Keys, when positive, is the size of the routing keyspace (TPC-C:
	// the warehouse count). A partition count above it is clamped with a
	// logged warning — extra owners would never receive an action.
	Keys int
	// Logf receives warnings (nil means the standard logger).
	Logf func(format string, args ...any)
}

// LockReq names one partition-local lock an action needs. Keys are
// opaque to the executor; the workload layer defines the encoding.
type LockReq struct {
	Key  uint64
	Mode lock.Mode
}

// RunFunc is an action body. It runs on the owning partition's
// goroutine inside sub-transaction sub; input carries the transaction's
// cross-partition rendezvous value (zero until published).
type RunFunc func(ctx context.Context, sub *tx.Tx, input uint64) error

// ActionSpec declares one per-partition action of a transaction: the
// partition it routes to, every partition-local lock it will touch
// (all-or-nothing granting requires the full set up front), and its
// body.
type ActionSpec struct {
	Partition int
	// RouteKey, when non-zero, is the action's 1-based routing key
	// (TPC-C: warehouse id); Add resolves the owning partition from it
	// through Route. Zero means Partition is used as-is.
	RouteKey uint32
	Locks    []LockReq
	Run      RunFunc
	// Produces marks the action whose body publishes the transaction's
	// input value (Txn.PublishInput); dependents are released when it
	// completes.
	Produces bool
	// Dependent parks the action — granted, holding its locks — until
	// the producer's partition posts the input message.
	Dependent bool
	// ReadOnly commits the sub-transaction through the engine's
	// read-only path (no durability wait).
	ReadOnly bool
}

// action is an ActionSpec bound to a transaction. The mutable fields
// (sub, err, parkedOnce) are owned by the partition's goroutine.
type action struct {
	txn       *Txn
	part      *partition
	locks     []LockReq
	run       RunFunc
	produces  bool
	dependent bool
	readonly  bool

	parkedOnce bool
	sub        *tx.Tx
	err        error
}

// Txn is a decomposed transaction: a set of actions plus the rendezvous
// state they synchronize on. Build it with NewTxn/Add, then Submit.
type Txn struct {
	exec    *Executor
	ctx     context.Context
	actions []*action
	multi   bool

	// pending counts actions whose bodies have not finished; the last
	// decrementer decides commit-or-abort. finishPending counts actions
	// not yet committed/rolled back; the last finisher resolves done.
	pending       atomic.Int32
	finishPending atomic.Int32
	failed        atomic.Bool
	input         atomic.Uint64
	inputReady    atomic.Bool
	done          chan error

	subs []*tx.Tx // the deciding owner's scratch: sub-transactions to precommit
}

// NewTxn starts building a transaction bound to ctx (bodies receive it).
// The Txn, its actions and their lock lists come from the executor's pool,
// and Submit returns them to it.
func (x *Executor) NewTxn(ctx context.Context) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	t, _ := x.txns.Get().(*Txn)
	if t == nil {
		t = &Txn{exec: x, done: make(chan error, 1)}
	}
	t.ctx = ctx
	return t
}

// Add appends one action. The action keeps its own copy of spec.Locks.
func (t *Txn) Add(spec ActionSpec) {
	part := spec.Partition
	if spec.RouteKey != 0 {
		part = t.exec.Route(spec.RouteKey)
	}
	var a *action
	if n := len(t.actions); n < cap(t.actions) {
		a = t.actions[:n+1][n] // a recycled action, or nil
	}
	if a == nil {
		a = new(action)
	}
	*a = action{
		txn:       t,
		part:      t.exec.parts[part],
		locks:     append(a.locks[:0], spec.Locks...),
		run:       spec.Run,
		produces:  spec.Produces,
		dependent: spec.Dependent,
		readonly:  spec.ReadOnly,
	}
	t.actions = append(t.actions, a)
}

// recycle empties t, which no partition owner references any more, and
// returns it to its executor's pool with its actions and their lock lists.
func (t *Txn) recycle() {
	poisonTxn(t)
	t.actions = t.actions[:0]
	t.ctx = nil
	t.multi = false
	t.failed.Store(false)
	t.input.Store(0)
	t.inputReady.Store(false)
	t.exec.txns.Put(t)
}

// PublishInput stores the transaction's rendezvous value. Call it from
// the producing action's body before it returns; dependent actions read
// it as their input argument.
func (t *Txn) PublishInput(v uint64) { t.input.Store(v) }

// result is the transaction's outcome: the first action error in
// canonical order (nil on a clean commit).
func (t *Txn) result() error {
	for _, a := range t.actions {
		if a.err != nil {
			return a.err
		}
	}
	return nil
}

// Executor routes decomposed transactions to partition owners.
type Executor struct {
	env   Env
	parts []*partition

	// submitMu makes a multi-partition enqueue atomic: all partitions
	// observe cross-partition transactions in one global submission
	// order (deadlock-freedom rule 3). Single-partition transactions
	// never take it.
	submitMu sync.Mutex
	closed   atomic.Bool
	stopped  chan struct{} // closed once every owner has exited

	// router, when set, replaces the modulo default of Route. Installed
	// by the PLP layer before the first transaction, so the executor and
	// the partition map agree on ownership; never changed afterwards.
	router func(key uint32) int

	localTx   atomic.Uint64
	crossTx   atomic.Uint64
	abortedTx atomic.Uint64

	txns sync.Pool // recycled *Txn (NewTxn, Txn.recycle)
}

// NewExecutor builds an executor over env and starts its partition
// owners. Close must be called after all Submits returned.
func NewExecutor(env Env, opts Options) *Executor {
	n := opts.Partitions
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if opts.Keys > 0 && n > opts.Keys {
		logf := opts.Logf
		if logf == nil {
			logf = log.Printf
		}
		logf("dora: clamping %d partitions to %d routing keys (extra owners would idle)", n, opts.Keys)
		n = opts.Keys
	}
	x := &Executor{env: env, parts: make([]*partition, n), stopped: make(chan struct{})}
	for i := range x.parts {
		p := &partition{x: x, id: i, locks: make(map[uint64]*lockEntry), exited: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		x.parts[i] = p
		go p.loop()
	}
	return x
}

// Partitions returns the resolved partition count.
func (x *Executor) Partitions() int { return len(x.parts) }

// Route maps a 1-based routing key (TPC-C: warehouse id) to its
// partition: through the installed router when one is set (PLP's
// partition map), otherwise round-robin modulo.
func (x *Executor) Route(key uint32) int {
	if x.router != nil {
		if p := x.router(key); p >= 0 && p < len(x.parts) {
			return p
		}
		return 0
	}
	return int((key - 1) % uint32(len(x.parts)))
}

// SetRouter installs the routing function consulted by Route. Call it
// once, before the first transaction is built: Route reads it without
// synchronization, and an action's partition is fixed when Add routes it.
func (x *Executor) SetRouter(fn func(key uint32) int) { x.router = fn }

// Submit enqueues t's actions and blocks until every partition applied
// the rendezvous decision, returning the transaction's outcome. A
// multi-partition transaction is enqueued atomically in canonical
// partition order; see the package comment's deadlock-freedom argument.
// t goes back to the executor's pool: the caller must not use it after.
func (x *Executor) Submit(t *Txn) error {
	if x.closed.Load() {
		t.recycle()
		return ErrClosed
	}
	n := len(t.actions)
	if n == 0 {
		t.recycle()
		return ErrNoActions
	}
	hasProducer := false
	hasDependent := false
	for _, a := range t.actions {
		hasProducer = hasProducer || a.produces
		hasDependent = hasDependent || a.dependent
	}
	if hasDependent && !hasProducer {
		t.recycle()
		return ErrNoProducer
	}
	t.pending.Store(int32(n))
	t.finishPending.Store(int32(n))
	for _, a := range t.actions {
		a.part.routed.Add(1)
	}
	if n == 1 {
		x.localTx.Add(1)
		t.actions[0].part.enqueue(message{kind: msgAction, a: t.actions[0]})
	} else {
		t.multi = true
		x.crossTx.Add(1)
		slices.SortStableFunc(t.actions, func(a, b *action) int { return cmp.Compare(a.part.id, b.part.id) })
		x.submitMu.Lock()
		for _, a := range t.actions {
			a.part.enqueue(message{kind: msgAction, a: a})
		}
		x.submitMu.Unlock()
	}
	select {
	case err := <-t.done:
		// The last owner to finish an action sent it: none touches t again.
		t.recycle()
		return err
	case <-x.stopped: // Close raced t, as a crash does: restart recovery settles it
		// t is dropped, not recycled: an owner stopped mid-transaction may
		// still hold its actions.
		return ErrClosed
	}
}

// Close stops the partition owners after they drain their queues. The
// caller must have quiesced: no Submit may be in flight or issued
// afterwards.
func (x *Executor) Close() {
	if x.closed.Swap(true) {
		return
	}
	for _, p := range x.parts {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.cond.Signal()
	}
	for _, p := range x.parts {
		<-p.exited
	}
	close(x.stopped)
}

// PartitionStats reports one partition owner's activity.
type PartitionStats struct {
	Routed         uint64 // actions routed to this partition
	Acquires       uint64 // thread-local lock grants (never the shared manager)
	LockWaits      uint64 // actions parked behind a local conflict
	InputWaits     uint64 // dependent actions parked for a cross-partition input
	Commits        uint64 // sub-transactions committed
	Aborts         uint64 // sub-transactions rolled back
	QueueHighWater int64  // deepest observed input-queue backlog
}

// Stats aggregates executor counters.
type Stats struct {
	Partitions      int
	Routed          uint64 // actions routed, all partitions
	LocalTx         uint64 // single-partition transactions
	CrossTx         uint64 // multi-partition transactions
	LocalAcquires   uint64 // thread-local lock grants, all partitions
	LocalWaits      uint64 // actions parked behind a local conflict
	RendezvousWaits uint64 // dependent actions parked for a cross-partition input
	Aborts          uint64 // transactions rolled back
	QueueHighWater  int64  // max over partitions
	// SkewRatio is max/mean of the per-partition Routed counters — 1.0
	// is perfectly uniform routing. Ownership is fixed, so it reports
	// the workload's skew as the partition map splits it. Zero when
	// nothing was routed yet.
	SkewRatio float64
	Parts     []PartitionStats
}

// Stats snapshots the executor's counters.
func (x *Executor) Stats() Stats {
	s := Stats{
		Partitions: len(x.parts),
		LocalTx:    x.localTx.Load(),
		CrossTx:    x.crossTx.Load(),
		Aborts:     x.abortedTx.Load(),
		Parts:      make([]PartitionStats, len(x.parts)),
	}
	var maxRouted uint64
	for i, p := range x.parts {
		ps := p.stats()
		s.Parts[i] = ps
		s.Routed += ps.Routed
		s.LocalAcquires += ps.Acquires
		s.LocalWaits += ps.LockWaits
		s.RendezvousWaits += ps.InputWaits
		if ps.Routed > maxRouted {
			maxRouted = ps.Routed
		}
		if ps.QueueHighWater > s.QueueHighWater {
			s.QueueHighWater = ps.QueueHighWater
		}
	}
	if s.Routed > 0 {
		mean := float64(s.Routed) / float64(len(x.parts))
		s.SkewRatio = float64(maxRouted) / mean
	}
	return s
}
