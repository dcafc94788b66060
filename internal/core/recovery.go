package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// RecoveryStats describes the restart recovery performed at Open.
type RecoveryStats struct {
	Ran              bool          // a non-empty log triggered recovery
	Analysis         time.Duration // log scan rebuilding tx + dirty tables
	Redo             time.Duration // replay + directory rebuild
	Undo             time.Duration // loser rollback
	RecordsScanned   uint64        // records seen by the redo scan
	RecordsReplayed  uint64        // records applied (survived the page-LSN gate)
	Losers           int           // in-flight transactions rolled back
	TornBytesClipped int64         // torn tail bytes discarded before replay
	SegmentsArchived uint64        // log segments archived since Open
	RedoWorkers      int           // redo parallelism used
	RedoStart        wal.LSN       // where the redo scan began
	LogEnd           wal.LSN       // log extent at recovery time
}

// ARIES restart recovery: analysis → redo → (directory rebuild) → undo.
//
// Allocation metadata is not logged; after redo, every page header carries
// its owning store and type, so the free-space manager and store directory
// are rebuilt by scanning pages (through the buffer pool, so redone-but-
// unflushed state is visible). B-tree roots are rediscovered from the root
// flag in node headers.

// loserState tracks one in-flight transaction during analysis.
type loserState struct {
	lastLSN  wal.LSN
	undoNext wal.LSN
}

// restart runs crash recovery. Called from Open when the log is non-empty.
func (e *Engine) restart() error {
	rs := &e.recovery
	rs.Ran = true
	rs.RedoWorkers = e.cfg.RedoWorkers
	rs.LogEnd = wal.LSN(e.logStore.Size())
	start := time.Now()
	losers, redoStart, maxTxID, err := e.analyze()
	if err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	rs.Analysis = time.Since(start)
	rs.RedoStart = redoStart
	rs.Losers = len(losers)
	start = time.Now()
	if err := e.redo(redoStart); err != nil {
		return fmt.Errorf("redo: %w", err)
	}
	if err := e.rebuildDirectory(); err != nil {
		return fmt.Errorf("directory rebuild: %w", err)
	}
	rs.Redo = time.Since(start)
	e.txns.NextIDFloor(maxTxID)
	if e.cfg.PLP {
		// Losers may carry logical undo against partitioned indexes, and
		// routing a key to its segment needs the segment catalog's root
		// table. Segment roots never change after registration, so the
		// pre-undo map is safe to route with; plpInit re-reads the
		// catalog after undo for the authoritative post-recovery map.
		if m, rid, err := e.plpReadCatalog(); err == nil && m != nil {
			e.plpMap.Store(m)
			e.plpRID = rid
		}
	}
	start = time.Now()
	if err := e.undoLosers(losers); err != nil {
		return fmt.Errorf("undo: %w", err)
	}
	rs.Undo = time.Since(start)
	return e.Checkpoint()
}

// analyze scans the log from the last checkpoint, reconstructing the
// active-transaction table and where redo starts. Redo has no per-page
// skip (page-LSN gating decides), so of the dirty-page table only its
// oldest recLSN is kept: a running minimum over the checkpoint's dirty
// pages (its cleaner low-water mark included) and every page update the
// scan reads.
func (e *Engine) analyze() (losers map[uint64]*loserState, redoStart wal.LSN, maxTxID uint64, err error) {
	losers = make(map[uint64]*loserState)
	master, err := e.logStore.Master()
	if err != nil {
		return nil, 0, 0, err
	}
	start, err := analysisStart(e.logStore, master)
	if err != nil {
		return nil, 0, 0, err
	}
	redoStart = wal.NullLSN
	dirtied := func(recLSN wal.LSN) {
		if redoStart == wal.NullLSN || recLSN < redoStart {
			redoStart = recLSN
		}
	}
	// A transaction whose commit or end record the scan has passed is
	// never a loser again, whatever a checkpoint's table taken before its
	// end says: undoing it would undo what later commits wrote.
	ended := make(map[uint64]bool)

	sc := wal.NewScanner(e.logStore, start)
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, 0, err
		}
		if rec.TxID > maxTxID {
			maxTxID = rec.TxID
		}
		switch rec.Type {
		case wal.RecTxBegin:
			losers[rec.TxID] = &loserState{lastLSN: rec.LSN, undoNext: wal.NullLSN}
		case wal.RecUpdate:
			l := losers[rec.TxID]
			if l == nil {
				l = &loserState{}
				losers[rec.TxID] = l
			}
			l.lastLSN = rec.LSN
			l.undoNext = rec.LSN
			if rec.Page != 0 {
				dirtied(rec.LSN)
			}
		case wal.RecCLR:
			l := losers[rec.TxID]
			if l == nil {
				l = &loserState{}
				losers[rec.TxID] = l
			}
			l.lastLSN = rec.LSN
			l.undoNext = rec.UndoNext
			if rec.Page != 0 {
				dirtied(rec.LSN)
			}
		case wal.RecTxCommit, wal.RecTxEnd:
			delete(losers, rec.TxID)
			ended[rec.TxID] = true
			for b := rec.Redo; len(b) > 0; { // a group commit (publishCommit)
				id, n := binary.Uvarint(b)
				if n <= 0 {
					return nil, 0, 0, fmt.Errorf("%w: group commit at %v", wal.ErrCorrupt, rec.LSN)
				}
				delete(losers, id)
				ended[id] = true
				b = b[n:]
			}
		case wal.RecTxAbort:
			if l := losers[rec.TxID]; l != nil {
				l.lastLSN = rec.LSN
			}
		case wal.RecCkptEnd:
			data, err := wal.DecodeCheckpoint(rec.Redo)
			if err != nil {
				return nil, 0, 0, err
			}
			if data.BeginLSN < master {
				continue // an older checkpoint, read because analysis starts below the master
			}
			for _, t := range data.Txs {
				if _, seen := losers[t.TxID]; !seen && !ended[t.TxID] {
					losers[t.TxID] = &loserState{lastLSN: t.LastLSN, undoNext: t.UndoNext}
				}
				if t.TxID > maxTxID {
					maxTxID = t.TxID
				}
			}
			for _, d := range data.Dirty {
				// Page 0 is the cleaner-tracked low-water mark (§7.7
				// checkpoints); it counts like any other recLSN.
				dirtied(d.RecLSN)
			}
		}
	}
	if redoStart == wal.NullLSN || (master != wal.NullLSN && master < redoStart) {
		// No dirty info: be conservative and start at the checkpoint (or
		// the log head when there is none). Page-LSN gating makes extra
		// redo scanning harmless.
		if master != wal.NullLSN {
			redoStart = master
		} else {
			redoStart = wal.NullLSN // scanner clamps to log start
		}
	}
	// Drop losers that never logged anything undoable.
	for id, l := range losers {
		if l.lastLSN == wal.NullLSN {
			delete(losers, id)
		}
	}
	return losers, redoStart, maxTxID, nil
}

// analysisStart is where analysis reads the log from: the master
// checkpoint, or the oldest LastLSN its transaction table names if that is
// older. A record joins its transaction's chain (tx.RecordLog) only after
// Insert has placed it, so the table can name a transaction's record
// before its newest while the newest lies below the checkpoint.
func analysisStart(store wal.Store, master wal.LSN) (wal.LSN, error) {
	if master == wal.NullLSN {
		return master, nil
	}
	sc := wal.NewScanner(store, master)
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			return master, nil
		}
		if err != nil {
			return 0, err
		}
		if rec.Type != wal.RecCkptEnd {
			continue
		}
		data, err := wal.DecodeCheckpoint(rec.Redo)
		if err != nil {
			return 0, err
		}
		if data.BeginLSN != master {
			continue
		}
		start := master
		for _, t := range data.Txs {
			if t.LastLSN != wal.NullLSN {
				start = min(start, t.LastLSN)
			}
		}
		return start, nil
	}
}

// redoApplies reports whether a record carries page redo work.
func redoApplies(rec *wal.Record) bool {
	if rec.Page == 0 || len(rec.Redo) == 0 {
		return false
	}
	return rec.Type == wal.RecUpdate || rec.Type == wal.RecCLR
}

// growFor extends the volume to cover pid: the volume may be shorter than
// a logged page id if growth raced the crash (fresh pages read zeroed,
// the redone ops reformat them).
func (e *Engine) growFor(pid page.ID) error {
	for uint64(pid) > e.vol.NumPages() {
		if _, err := e.vol.Grow(space.ExtentSize); err != nil {
			return err
		}
	}
	return nil
}

// applyRedo replays one record, gated by page LSN, reporting whether it
// was applied.
//
// No per-page DPT skip: with cleaner-fed checkpoints the table holds only
// a low-water mark, and analysis-derived recLSNs can postdate unflushed
// pre-checkpoint updates. The page-LSN gate is the sound (and sufficient)
// redo filter.
func (e *Engine) applyRedo(rec *wal.Record) (bool, error) {
	f, err := e.pool.Fix(rec.Page, sync2.LatchEX)
	if err != nil {
		return false, err
	}
	defer e.pool.Unfix(f, sync2.LatchEX)
	if f.Page().LSN() >= uint64(rec.LSN) {
		return false, nil
	}
	op, err := pageop.Decode(rec.Redo)
	if err != nil {
		return false, fmt.Errorf("redo on %v at %v: %w", rec.Page, rec.LSN, err)
	}
	if err := pageop.Apply(f.Page(), op); err != nil {
		return false, fmt.Errorf("redo %v on %v at %v: %w", op.Kind, rec.Page, rec.LSN, err)
	}
	f.Page().SetLSN(uint64(rec.LSN))
	f.MarkDirty(rec.LSN)
	return true, nil
}

// redoHash maps a page to its redo worker.
func redoHash(pid page.ID, workers int) int {
	return int((uint64(pid) * 0x9e3779b97f4a7c15 >> 33) % uint64(workers))
}

// redo replays every page update from redoStart, gated by page LSN: a
// serial dispatcher (which also owns volume growth) fans the records out
// to Config.RedoWorkers workers hash-partitioned by page ID. Every page
// maps to exactly one worker, so per-page LSN order — the only ordering
// redo needs — is preserved while distinct pages replay in parallel (the
// same partitioning argument as the sharded buffer pool).
func (e *Engine) redo(redoStart wal.LSN) error {
	workers := e.cfg.RedoWorkers
	chans := make([]chan *wal.Record, workers)
	errs := make([]error, workers)
	var replayed atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *wal.Record, 256)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rec := range chans[i] {
				if errs[i] != nil {
					continue // drain after failure
				}
				applied, err := e.applyRedo(rec)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				if applied {
					replayed.Add(1)
				}
			}
		}(i)
	}
	var scanErr error
	sc := wal.NewScanner(e.logStore, redoStart)
	for !failed.Load() {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			scanErr = err
			break
		}
		e.recovery.RecordsScanned++
		if !redoApplies(rec) {
			continue
		}
		if err := e.growFor(rec.Page); err != nil {
			scanErr = err
			break
		}
		chans[redoHash(rec.Page, workers)] <- rec
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	e.recovery.RecordsReplayed += replayed.Load()
	if scanErr != nil {
		return scanErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildDirectory reconstructs the free-space manager and store directory
// from page headers (read through the buffer pool so redone state wins).
func (e *Engine) rebuildDirectory() error {
	n := e.vol.NumPages()
	for pid := page.ID(1); uint64(pid) <= n; pid++ {
		f, err := e.pool.Fix(pid, sync2.LatchSH)
		if err != nil {
			return err
		}
		p := f.Page()
		switch p.Type() {
		case page.TypeHeap:
			e.sm.RestoreStore(p.Store(), space.KindHeap)
			e.sm.RestorePage(pid, p.Store())
		case page.TypeBTree:
			e.sm.RestoreStore(p.Store(), space.KindBTree)
			e.sm.RestorePage(pid, p.Store())
			if btree.PageIsRoot(p) {
				if err := e.sm.SetRoot(p.Store(), pid); err != nil {
					e.pool.Unfix(f, sync2.LatchSH)
					return err
				}
			}
		}
		e.pool.Unfix(f, sync2.LatchSH)
	}
	e.sm.CoverVolume()
	return nil
}

// undoLosers rolls back every in-flight transaction found by analysis, in
// ascending ID order. The order is fixed so recovery is deterministic:
// CLRs land at identical LSNs on every replay of the same log, which is
// what lets the parallel-redo equivalence test demand byte-identical
// state.
func (e *Engine) undoLosers(losers map[uint64]*loserState) error {
	ids := make([]uint64, 0, len(losers))
	for id := range losers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l := losers[id]
		undoNext := l.undoNext
		if undoNext == wal.NullLSN {
			undoNext = l.lastLSN
		}
		t := e.txns.Restore(id, l.lastLSN, undoNext)
		if err := e.rollback(t, undoNext); err != nil {
			return fmt.Errorf("tx %d: %w", id, err)
		}
		if _, err := e.log.Insert(&wal.Record{
			Type: wal.RecTxEnd, TxID: id, PrevLSN: t.LastLSN(),
		}); err != nil {
			return err
		}
		if err := e.txns.Abort(t); err != nil {
			return err
		}
	}
	return e.log.Flush(e.log.CurLSN())
}
