//go:build race

package dora

import (
	"context"
	"errors"

	"repro/internal/lock"
	"repro/internal/tx"
)

// errRecycled is what a poisoned action reports if anything runs it.
var errRecycled = errors.New("dora: action of a recycled transaction")

// poisonTxn overwrites t's actions before t goes back to the pool, so that
// a reference kept past Submit's return — a stale queue message, a body
// still running — fails loudly under the race detector's test runs
// instead of acting on the next transaction built in the same memory.
func poisonTxn(t *Txn) {
	for _, a := range t.actions {
		for i := range a.locks {
			a.locks[i] = LockReq{Key: 0xA5A5A5A5A5A5A5A5, Mode: lock.X}
		}
		a.txn, a.part, a.sub, a.err = nil, nil, nil, errRecycled
		a.run = func(context.Context, *tx.Tx, uint64) error { panic(errRecycled) }
	}
}
