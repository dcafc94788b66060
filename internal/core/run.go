package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/lock"
	"repro/internal/tx"
)

// RetryPolicy governs the managed-transaction runner's response to
// deadlock victims and lock timeouts: capped exponential backoff with
// jitter, so repeated victims do not re-collide in lockstep.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts, including the first (default 10).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff (default 250µs); attempt n
	// backs off BaseBackoff << n, capped at MaxBackoff, with ±50% jitter.
	// The defaults suit short in-memory transactions; raise them for
	// workloads whose conflicts take longer to drain.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 50ms). The cap matters
	// under sustained contention: a transaction that keeps being chosen
	// as the deadlock victim (retries always carry a fresh, younger txID,
	// which youngest-dies victimizes again) needs to back off far enough
	// to desynchronize from the storm.
	MaxBackoff time.Duration
}

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 10
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 250 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before retry attempt (1-based), jittered in
// [d/2, d] so colliding victims spread out.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d <<= 1
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// IsRetryable reports whether err is an abort-and-retry error: a deadlock
// victim or a lock-wait timeout. Cancellation is deliberately not
// retryable — the caller asked to stop.
func IsRetryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout)
}

// RunCtx executes fn inside a managed transaction: it begins a
// transaction, runs fn, and commits via commit (nil means strict
// CommitCtx) when fn returns nil, or aborts when fn errs. Deadlock and
// timeout victims are aborted and retried under policy with capped
// exponential backoff; any other error — and ctx cancellation — aborts
// and returns without retry. fn may therefore run multiple times and must
// be written to be re-executed from scratch (no side effects outside the
// transaction before commit).
//
// A commit failure that leaves the transaction in StateCommitting (an
// interrupted durability wait) is returned as-is — the commit record is
// in the log, so re-running fn could double-apply. The runner hands it to
// CommitDetached, which completes the commit and releases its locks once
// the flush lands, so a cancelled managed commit never strands lock
// holders.
func (e *Engine) RunCtx(ctx context.Context, policy RetryPolicy, fn func(*tx.Tx) error, commit func(context.Context, *tx.Tx) error) error {
	policy = policy.normalize()
	if commit == nil {
		commit = e.CommitCtx
	}
	var err error
	for attempt := 1; ; attempt++ {
		var t *tx.Tx
		t, err = e.BeginCtx(ctx)
		if err != nil {
			return err
		}
		err = fn(t)
		if err == nil {
			err = commit(ctx, t)
			if err == nil {
				return nil
			}
			if t.State() == tx.StateCommitting {
				// In doubt: the commit record is logged, so fn must not
				// re-run. The transaction is invisible to the caller (the
				// runner made it), so nobody could ever retry the wait,
				// whatever interrupted it (cancellation, a flush error).
				e.CommitDetached(t)
				return err
			}
			if t.State() == tx.StateActive {
				_ = e.Abort(t)
			}
		} else if t.State() == tx.StateActive {
			// Complete the abort even when ctx is cancelled: rollback
			// must run to restore consistency before we surface err.
			if aerr := e.Abort(t); aerr != nil {
				return errors.Join(err, aerr)
			}
		}
		if !IsRetryable(err) {
			return err
		}
		if attempt >= policy.MaxAttempts {
			return fmt.Errorf("core: giving up after %d attempts: %w", attempt, err)
		}
		timer := time.NewTimer(policy.backoff(attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctxErr(ctx)
		}
	}
}
