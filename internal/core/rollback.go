package core

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pageop"
	"repro/internal/sync2"
	"repro/internal/tx"
	"repro/internal/wal"
)

// rollback undoes transaction t from undoNext back to its begin record,
// writing compensation log records so that a crash mid-rollback resumes
// where it left off. It serves both live aborts and restart undo (t
// Restore()d by analysis).
func (e *Engine) rollback(t *tx.Tx, undoNext wal.LSN) error {
	// The undo walk reads the log through the store; push the volatile
	// tail out first. (Everything we must read precedes this point.)
	if err := e.log.Flush(e.log.CurLSN()); err != nil {
		return err
	}
	cur := undoNext
	for cur != wal.NullLSN {
		rec, err := wal.ReadRecordAt(e.logStore, cur)
		if err != nil {
			return err
		}
		switch rec.Type {
		case wal.RecTxBegin:
			return nil // fully undone
		case wal.RecCLR:
			// Skip everything this CLR already compensated.
			cur = rec.UndoNext
			t.SetUndoNext(cur)
			continue
		case wal.RecUpdate:
			if len(rec.Undo) == 0 {
				// Redo-only (structure modification / format): not undone.
				cur = rec.PrevLSN
				t.SetUndoNext(cur)
				continue
			}
			if pageop.IsLogical(rec.Undo) {
				if err := e.undoLogical(t, rec); err != nil {
					return err
				}
			} else {
				if err := e.undoPhysical(t, rec); err != nil {
					return err
				}
			}
			cur = rec.PrevLSN
			t.SetUndoNext(cur)
		case wal.RecTxAbort:
			cur = rec.PrevLSN
			t.SetUndoNext(cur)
		default:
			cur = rec.PrevLSN
			t.SetUndoNext(cur)
		}
	}
	return nil
}

// undoPhysical applies a physical inverse op and logs it as a CLR whose
// redo payload is the inverse (so restart can redo the undo) and whose
// UndoNext skips past the compensated record.
func (e *Engine) undoPhysical(t *tx.Tx, rec *wal.Record) error {
	op, err := pageop.Decode(rec.Undo)
	if err != nil {
		return err
	}
	f, err := e.pool.Fix(rec.Page, sync2.LatchEX)
	if err != nil {
		return err
	}
	defer e.pool.Unfix(f, sync2.LatchEX)
	clr := &wal.Record{
		Type:     wal.RecCLR,
		TxID:     t.ID(),
		PrevLSN:  t.LastLSN(),
		Page:     rec.Page,
		Redo:     rec.Undo,
		UndoNext: rec.PrevLSN,
	}
	lsn, err := e.log.InsertCLR(clr)
	if err != nil {
		return err
	}
	if err := pageop.Apply(f.Page(), op); err != nil {
		return fmt.Errorf("core: physical undo %v on %v: %w", op.Kind, rec.Page, err)
	}
	if op.Kind == pageop.KindHeapDelete {
		// Undoing an insert tombstones the slot; keep the frame's
		// free-slot hint honest so the slot stays reusable.
		f.LowerSlotHint(op.Slot)
	}
	f.Page().SetLSN(uint64(lsn))
	f.MarkDirty(lsn)
	t.RecordLog(lsn)
	return nil
}

// undoLogical executes a logical undo action, then writes a marker CLR
// that skips the compensated record.
func (e *Engine) undoLogical(t *tx.Tx, rec *wal.Record) error {
	if err := e.logicalUndoAction(t, rec.Undo); err != nil {
		return err
	}
	clr := &wal.Record{
		Type:     wal.RecCLR,
		TxID:     t.ID(),
		PrevLSN:  t.LastLSN(),
		UndoNext: rec.PrevLSN,
	}
	lsn, err := e.log.InsertCLR(clr)
	if err != nil {
		return err
	}
	t.RecordLog(lsn)
	return nil
}

// logicalUndoAction runs the B-tree key-level action an encoded logical
// undo describes, through the index layer with redo-only logging.
func (e *Engine) logicalUndoAction(t *tx.Tx, undo []byte) error {
	l, err := pageop.DecodeLogical(undo)
	if err != nil {
		return err
	}
	tr, a, err := e.openTreeByStore(l.Store, l.Key)
	if err != nil {
		return err
	}
	// Logical undo must be idempotent: a crash after the action but
	// before its CLR re-executes it at restart, so "already undone" states
	// (key absent on delete-undo, present on insert-undo) are successes, and
	// an update-undo on a restored value changes nothing (pageop.Logical).
	switch l.Kind {
	case pageop.LogicalBTreeDelete:
		if _, err := tr.DeleteNoUndo(a, t, l.Key); err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
			return fmt.Errorf("core: logical undo delete %q: %w", l.Key, err)
		}
	case pageop.LogicalBTreeInsert:
		if err := tr.InsertNoUndo(a, t, l.Key, l.Value); err != nil && !errors.Is(err, btree.ErrDuplicateKey) {
			return fmt.Errorf("core: logical undo insert %q: %w", l.Key, err)
		}
	case pageop.LogicalBTreeUpdate:
		if err := tr.UpdateNoUndo(a, t, l.Key, int(l.Off), int(l.Suf), l.Value); err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
			return fmt.Errorf("core: logical undo update %q: %w", l.Key, err)
		}
	default:
		return fmt.Errorf("core: unknown logical undo kind %d", l.Kind)
	}
	return nil
}
