// Package tx implements transaction management (§2.2.5): the active
// transaction table, ID assignment, per-transaction log chains, 2PL lock
// bookkeeping with escalation counters, and the two oldest-transaction
// disciplines the paper contrasts in §7.3 — scanning the transaction list
// under its mutex versus reading a cached atomic ID maintained by
// committing transactions.
package tx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/page"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	StateActive State = iota
	StateCommitted
	StateAborted
	// StateCommitting is the staged-commit pipeline's pre-committed state:
	// the commit record is in the log (not necessarily durable) and all
	// locks have been released early. The transaction can no longer abort
	// voluntarily; it either hardens to StateCommitted or, if the system
	// crashes before its commit record reaches the disk, is rolled back by
	// restart recovery like any other loser.
	StateCommitting
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitting:
		return "committing"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// ErrNotActive is returned when finishing a transaction twice.
var ErrNotActive = errors.New("tx: transaction not active")

// Tx is one transaction's bookkeeping. A Tx is owned by a single worker
// goroutine; only the transaction-table links are shared.
type Tx struct {
	id uint64
	// state is atomic because the owner goroutine moves it to
	// StateCommitting while checkpoints concurrently inspect it.
	state atomic.Int32

	// Log chain. All three are atomic because checkpoint snapshots (and
	// the log-archive safe-point computation) read them concurrently with
	// the owner's RecordLog.
	firstLSN atomic.Uint64
	lastLSN  atomic.Uint64
	undoNext atomic.Uint64

	// hardenTarget is the log position whose durability completes this
	// transaction's commit (set at commit-record insertion; used to retry
	// hardening after a failed flush).
	hardenTarget wal.LSN
	// elrHorizon is the highest early-release horizon observed while
	// acquiring locks: the log position that must be durable before this
	// transaction's own commit may be acknowledged, because data it read
	// could come from a pre-committed-but-not-yet-hardened transaction.
	elrHorizon wal.LSN

	// own is the owner-only memory the transaction borrows from its
	// manager for its lifetime (see owned).
	own *owned
	// noLock marks a DORA partition-local sub-transaction: the owning
	// partition's thread-local lock table already serialized every
	// conflicting action, so the engine skips lock-manager acquisition
	// for it entirely (logging, latching, and rollback are unchanged).
	noLock bool
	// snapshot marks a multiversion read-only transaction: it never logs,
	// never locks, and reads as of snapLSN by resolving version chains.
	// Checkpoints and the log-archive safe point skip it (it has no log
	// chain and must not block archiving). Set before the Tx is published
	// in the transaction table, never mutated after.
	snapshot bool
	// snapLSN is the pinned snapshot LSN (owner-only).
	snapLSN uint64
	// stamp, on a writing transaction, is the commit stamp shared by every
	// version entry it installed; nil until the first install (owner-only).
	stamp *mvcc.Stamp

	// ExtentCache is the per-transaction (conceptually thread-local)
	// extent-membership cache of §6.2.2.
	ExtentCache space.ExtentCache
}

// owned is the part of a transaction that only its owner goroutine
// touches and that outlives it: a Tx borrows one from its Manager's pool
// at Begin and gives it back when it ends (Commit, Abort), by which time
// the engine has released every lock its list names. reset clears it for
// the next Begin, keeping every buffer's capacity, so a transaction that
// fits what an earlier one grew allocates none of this. The Tx header
// itself is not recycled: early lock release, MVCC stamps and DORA's
// group commit may hold a *Tx after it ends, and must never see another
// transaction's state through it.
type owned struct {
	// 2PL bookkeeping: every distinct lock name acquired, released only
	// at commit/abort.
	locks []lock.Name
	// held is the transaction-private lock cache: the supremum mode
	// granted per name. It both answers the engine's covered-request
	// fast path without a lock-table trip and dedupes the release list
	// (the same name re-granted used to be replayed through Unlock once
	// per grant).
	held lock.Cache
	// cacheHits counts lock requests answered by the private cache, and
	// acquires those the lock manager granted; plain fields (not atomic)
	// because only the owner increments them — the engine folds both
	// into the lock manager's stats at release.
	cacheHits, acquires uint64
	// rowLocks counts row locks per store for escalation. A transaction
	// touches a handful of stores, so a linear-scanned slice beats a
	// map (no allocation, no hashing).
	rowLocks []rowLockCount
	// escalated marks stores where the transaction holds a full-store lock.
	escalated []storeEscalation

	// logScratch is where the owner builds its log records.
	logScratch LogScratch

	// cursors is what the owner remembers about the B-trees it has
	// touched, by tree root (a PLP forest's segments are separate trees):
	// see btree.Cursor. Eight covers New Order, TPC-C's widest
	// transaction; one that touches more trees forgets the cursor it
	// claimed longest ago. Empty at Begin.
	cursors [8]struct {
		root page.ID
		btree.Cursor
	}
	nextCursor uint8

	// arena holds the bytes the owner's operations make and drop within
	// the transaction: keys, row images, values copied out of leaves.
	arena Arena
}

// reset empties o for the next transaction, keeping its buffers. Under
// the race detector it first overwrites them with garbage (poison), so
// that a reference kept past the end of the transaction reads nonsense
// that a checked run notices, rather than the next transaction's data.
func (o *owned) reset() {
	poison(o)
	o.locks = o.locks[:0]
	o.held.Reset()
	o.cacheHits, o.acquires = 0, 0
	o.rowLocks = o.rowLocks[:0]
	o.escalated = o.escalated[:0]
	o.logScratch.Rec = wal.Record{}
	o.logScratch.Buf = o.logScratch.Buf[:0]
	o.cursors = [len(o.cursors)]struct {
		root page.ID
		btree.Cursor
	}{}
	o.nextCursor = 0
	o.arena.reset()
}

// owned returns t's owner-only memory. A transaction that ended (or was
// restored by recovery) has none; it gets a fresh one, which is never
// recycled into another live transaction's.
func (t *Tx) owned() *owned {
	if t.own == nil {
		t.own = new(owned)
	}
	return t.own
}

// TreeCursor returns t's cursor for the tree rooted at root, empty on
// first use. Owner-only, like everything the cursor is passed to.
func (t *Tx) TreeCursor(root page.ID) *btree.Cursor {
	o := t.owned()
	for i := range o.cursors {
		if o.cursors[i].root == root {
			return &o.cursors[i].Cursor
		}
	}
	tc := &o.cursors[int(o.nextCursor)%len(o.cursors)]
	o.nextCursor++
	tc.root, tc.Cursor = root, btree.Cursor{}
	return &tc.Cursor
}

// LogScratch returns the space where t's owner builds its log records.
func (t *Tx) LogScratch() *LogScratch { return &t.owned().logScratch }

// Arena returns t's arena: owner-only memory for bytes that live until
// the transaction ends, and are reused by a later transaction then.
func (t *Tx) Arena() *Arena { return &t.owned().arena }

// LogScratch is reusable space for building one log record at a time. The
// log manager has copied a record's bytes into its buffer by the time
// Insert returns, so one Record and one payload buffer serve every update
// a transaction logs.
type LogScratch struct {
	Rec wal.Record
	Buf []byte // payload bytes of Rec; kept for its capacity
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

// State returns the lifecycle state.
func (t *Tx) State() State { return State(t.state.Load()) }

// SetHardenTarget records the log position whose durability completes
// this transaction's commit.
func (t *Tx) SetHardenTarget(l wal.LSN) { t.hardenTarget = l }

// HardenTarget returns the commit's durability target (NullLSN before
// the commit record is inserted).
func (t *Tx) HardenTarget() wal.LSN { return t.hardenTarget }

// ObserveELR folds an early-lock-release horizon into the transaction's
// durability dependency: its commit must not be acknowledged before the
// log is durable past every observed horizon.
func (t *Tx) ObserveELR(h wal.LSN) {
	if h > t.elrHorizon {
		t.elrHorizon = h
	}
}

// ELRHorizon returns the highest observed early-release horizon.
func (t *Tx) ELRHorizon() wal.LSN { return t.elrHorizon }

// LastLSN returns the most recent log record of this transaction.
func (t *Tx) LastLSN() wal.LSN { return wal.LSN(t.lastLSN.Load()) }

// UndoNext returns the next record to undo during rollback.
func (t *Tx) UndoNext() wal.LSN { return wal.LSN(t.undoNext.Load()) }

// FirstLSN returns the transaction's first log record (NullLSN before
// anything was logged).
func (t *Tx) FirstLSN() wal.LSN { return wal.LSN(t.firstLSN.Load()) }

// RecordLog links a freshly inserted log record into the chain.
func (t *Tx) RecordLog(lsn wal.LSN) {
	if t.firstLSN.Load() == uint64(wal.NullLSN) {
		t.firstLSN.Store(uint64(lsn))
	}
	t.lastLSN.Store(uint64(lsn))
	t.undoNext.Store(uint64(lsn))
}

// SetUndoNext moves the undo cursor (used when CLRs skip records).
func (t *Tx) SetUndoNext(lsn wal.LSN) { t.undoNext.Store(uint64(lsn)) }

type rowLockCount struct {
	store uint32
	n     int
}

type storeEscalation struct {
	store uint32
	mode  lock.Mode
}

// AddLock records a grant of mode m on n: the private cache folds m
// into any mode already held (Supremum, mirroring the manager's
// conversion rule), and the name joins the release list only on its
// first grant — releaseLocks releases each held name exactly once.
func (t *Tx) AddLock(n lock.Name, m lock.Mode) {
	if o := t.owned(); o.held.Put(n, m) {
		o.locks = append(o.locks, n)
	}
}

// HeldMode returns the supremum mode this transaction holds on n (NL if
// none) from the private cache, without touching the lock table.
func (t *Tx) HeldMode(n lock.Name) lock.Mode { return t.owned().held.Get(n) }

// HitLockCache counts one lock request answered by the private cache.
func (t *Tx) HitLockCache() { t.owned().cacheHits++ }

// LockCacheHits returns the number of cache-answered lock requests.
func (t *Tx) LockCacheHits() uint64 { return t.owned().cacheHits }

// CountAcquire counts one lock request the lock manager granted t.
func (t *Tx) CountAcquire() { t.owned().acquires++ }

// LockAcquires returns the number of lock-manager grants counted so far.
func (t *Tx) LockAcquires() uint64 { return t.owned().acquires }

// SetNoLock marks t as lock-free: the caller guarantees an external
// serialization of conflicting accesses (DORA's partition-local lock
// tables), and the engine skips every lock-manager trip for t.
func (t *Tx) SetNoLock() { t.noLock = true }

// NoLock reports whether the engine should skip lock acquisition for t.
func (t *Tx) NoLock() bool { return t.noLock }

// IsSnapshot reports whether t is a multiversion read-only transaction.
func (t *Tx) IsSnapshot() bool { return t.snapshot }

// SetSnapshotLSN pins the LSN this snapshot transaction reads as of.
func (t *Tx) SetSnapshotLSN(lsn uint64) { t.snapLSN = lsn }

// SnapshotLSN returns the pinned snapshot LSN.
func (t *Tx) SnapshotLSN() uint64 { return t.snapLSN }

// Stamp returns the commit stamp shared by every version this writing
// transaction installed, or nil if it installed none.
func (t *Tx) Stamp() *mvcc.Stamp { return t.stamp }

// EnsureStamp returns the transaction's commit stamp, creating it on the
// first version install.
func (t *Tx) EnsureStamp() *mvcc.Stamp {
	if t.stamp == nil {
		t.stamp = mvcc.NewStamp()
	}
	return t.stamp
}

// Locks returns the held-lock list (most recent last), one entry per
// distinct name.
func (t *Tx) Locks() []lock.Name { return t.owned().locks }

// CountRowLock bumps the per-store row-lock counter and returns the new
// count (for escalation decisions).
func (t *Tx) CountRowLock(store uint32) int {
	o := t.owned()
	for i := range o.rowLocks {
		if o.rowLocks[i].store == store {
			o.rowLocks[i].n++
			return o.rowLocks[i].n
		}
	}
	o.rowLocks = append(o.rowLocks, rowLockCount{store: store, n: 1})
	return 1
}

// MarkEscalated records that the transaction escalated to a store-level
// lock in mode.
func (t *Tx) MarkEscalated(store uint32, m lock.Mode) {
	o := t.owned()
	for i := range o.escalated {
		if o.escalated[i].store == store {
			o.escalated[i].mode = m
			return
		}
	}
	o.escalated = append(o.escalated, storeEscalation{store: store, mode: m})
}

// Escalated returns the store-level mode the transaction escalated to, if
// any.
func (t *Tx) Escalated(store uint32) (lock.Mode, bool) {
	o := t.owned()
	for i := range o.escalated {
		if o.escalated[i].store == store {
			return o.escalated[i].mode, true
		}
	}
	return lock.NL, false
}

// Options configures the transaction manager.
type Options struct {
	// CachedOldest enables the §7.3 optimization: committing transactions
	// maintain an atomically readable oldest-active ID, so readers avoid
	// the transaction-list mutex entirely.
	CachedOldest bool
}

// Stats reports transaction-manager activity.
type Stats struct {
	Begins      uint64
	Commits     uint64
	Aborts      uint64
	OldestScans uint64 // list scans taken to answer Oldest()
	Lock        sync2.Stats
}

// Manager is the transaction manager.
type Manager struct {
	opts   Options
	mu     sync2.BlockingLock
	active map[uint64]*Tx
	nextID atomic.Uint64
	oldest atomic.Uint64 // cached oldest active id (CachedOldest)

	begins      atomic.Uint64
	commits     atomic.Uint64
	aborts      atomic.Uint64
	oldestScans atomic.Uint64

	// owned recycles ended transactions' owner-only memory (*owned).
	owned sync.Pool
}

// NewManager builds a transaction manager.
func NewManager(opts Options) *Manager {
	m := &Manager{opts: opts, active: make(map[uint64]*Tx)}
	m.nextID.Store(1)
	return m
}

// Begin starts a transaction.
func (m *Manager) Begin() *Tx { return m.begin(false) }

// BeginSnapshot starts a multiversion read-only transaction. It lives in
// the active table (so ActiveCount and stats see it) but is skipped by
// checkpoint snapshots and the archive safe point: it has no log chain.
func (m *Manager) BeginSnapshot() *Tx { return m.begin(true) }

func (m *Manager) begin(snapshot bool) *Tx {
	id := m.nextID.Add(1) - 1
	t := &Tx{id: id, snapshot: snapshot} // zero state == StateActive
	if o, ok := m.owned.Get().(*owned); ok {
		t.own = o
	}
	m.mu.Lock()
	m.active[id] = t
	if m.opts.CachedOldest && len(m.active) == 1 {
		m.oldest.Store(id)
	}
	m.mu.Unlock()
	m.begins.Add(1)
	return t
}

// finish removes t from the table and maintains the cached oldest ID.
func (m *Manager) finish(t *Tx, s State) error {
	m.mu.Lock()
	if _, ok := m.active[t.id]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNotActive, t.id)
	}
	delete(m.active, t.id)
	if m.opts.CachedOldest && m.oldest.Load() == t.id {
		// "Committing transactions would update the ID when they removed
		// themselves from the list" (§7.3).
		m.oldest.Store(m.scanOldestLocked())
	}
	m.mu.Unlock()
	t.state.Store(int32(s))
	if o := t.own; o != nil {
		t.own = nil
		o.reset()
		m.owned.Put(o)
	}
	if s == StateCommitted {
		m.commits.Add(1)
	} else {
		m.aborts.Add(1)
	}
	return nil
}

// Commit marks t committed and removes it from the table. Log flushing and
// lock release are the storage manager's responsibility, and must be done:
// t's owner-only memory (lock list, cursors, arena) goes to the next
// Begin, and nothing from it may be used after.
func (m *Manager) Commit(t *Tx) error { return m.finish(t, StateCommitted) }

// BeginCommit moves t to StateCommitting (the pipeline pre-commit stage)
// while keeping it in the active table until the commit hardens. It must
// be called only after t's commit record has been inserted into the log:
// checkpoints skip committing transactions on the strength of that
// ordering (the commit record provably precedes the checkpoint-end record,
// so the checkpoint's own flush hardens it).
func (m *Manager) BeginCommit(t *Tx) error {
	m.mu.Lock()
	if _, ok := m.active[t.id]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNotActive, t.id)
	}
	t.state.Store(int32(StateCommitting))
	m.mu.Unlock()
	return nil
}

// Abort marks t aborted and removes it from the table; as with Commit,
// t's locks must be released first.
func (m *Manager) Abort(t *Tx) error { return m.finish(t, StateAborted) }

// scanOldestLocked returns the smallest active id (0 when none). Caller
// holds mu.
func (m *Manager) scanOldestLocked() uint64 {
	var oldest uint64
	for id := range m.active {
		if oldest == 0 || id < oldest {
			oldest = id
		}
	}
	return oldest
}

// Oldest returns the oldest active transaction id, or 0 if none. With
// CachedOldest it is a single atomic load ("callers could read it
// atomically because IDs are 64-bit integers"); otherwise it scans the
// list under the table mutex — the §7.3 bottleneck.
func (m *Manager) Oldest() uint64 {
	if m.opts.CachedOldest {
		return m.oldest.Load()
	}
	m.oldestScans.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scanOldestLocked()
}

// Lookup returns the active transaction with id, or nil. The returned Tx
// must only be used by its owning goroutine.
func (m *Manager) Lookup(id uint64) *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// Restore re-registers a loser transaction during restart recovery with
// its chain state reconstructed by the analysis pass.
func (m *Manager) Restore(id uint64, lastLSN, undoNext wal.LSN) *Tx {
	t := &Tx{id: id} // zero state == StateActive
	t.lastLSN.Store(uint64(lastLSN))
	t.undoNext.Store(uint64(undoNext))
	m.mu.Lock()
	m.active[id] = t
	if m.opts.CachedOldest {
		old := m.oldest.Load()
		if old == 0 || id < old {
			m.oldest.Store(id)
		}
	}
	m.mu.Unlock()
	return t
}

// ActiveCount returns the number of active transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Snapshot returns checkpoint records for every active transaction.
func (m *Manager) Snapshot() []wal.TxInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.TxInfo, 0, len(m.active))
	for _, t := range m.active {
		if t.snapshot {
			// Snapshot readers never log; there is nothing to recover.
			continue
		}
		if t.State() == StateCommitting {
			// Pre-committed: its commit record is already in the log below
			// the checkpoint-end record, so the checkpoint flush hardens it
			// and analysis will see it as a winner. Listing it here would
			// make recovery roll back a durably committed transaction.
			continue
		}
		out = append(out, wal.TxInfo{TxID: t.id, LastLSN: t.LastLSN(), UndoNext: t.UndoNext()})
	}
	return out
}

// MinFirstLSN returns the oldest first-record LSN across every
// transaction in the table — the floor below which no live undo chain
// reaches, used to compute the log-archive safe point. ok is false when
// some transaction's extent is unknown (it registered but has not linked
// its begin record yet, or was restored by recovery without chain
// history); callers must then skip archiving rather than guess.
// Pre-committed transactions are included: should the crash beat their
// commit record to disk, restart will roll them back through their full
// chain.
func (m *Manager) MinFirstLSN() (min wal.LSN, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	min = wal.NullLSN
	for _, t := range m.active {
		if t.snapshot {
			// Snapshot readers never log: a permanently-Null FirstLSN must
			// not block log archiving.
			continue
		}
		first := t.FirstLSN()
		if first == wal.NullLSN {
			return wal.NullLSN, false
		}
		if min == wal.NullLSN || first < min {
			min = first
		}
	}
	return min, true
}

// NextIDFloor raises the ID generator above floor (used after recovery so
// new transactions do not reuse logged ids).
func (m *Manager) NextIDFloor(floor uint64) {
	for {
		cur := m.nextID.Load()
		if cur > floor {
			return
		}
		if m.nextID.CompareAndSwap(cur, floor+1) {
			return
		}
	}
}

// Stats returns a counter snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Begins:      m.begins.Load(),
		Commits:     m.commits.Load(),
		Aborts:      m.aborts.Load(),
		OldestScans: m.oldestScans.Load(),
		Lock:        m.mu.Stats(),
	}
}

var _ sync.Locker = (*sync2.BlockingLock)(nil)
