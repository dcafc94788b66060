package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	shoremt "repro"
	"repro/client"
)

// TestServerDisconnectStress hammers the server with waves of clients
// that open transactions and then leave in every possible way — commit,
// rollback, or an abrupt connection teardown mid-transaction — and
// checks the engine comes back to a clean steady state: no live lock
// requests, every begun transaction finished, no goroutine leaks.
// Designed to run under -race.
func TestServerDisconnectStress(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	db, err := shoremt.Open(shoremt.Options{CleanerInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Options{Workers: 4, QueueDepth: 64, MaxTx: 256, IdleTimeout: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()
	ctx := context.Background()

	setup, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := setup.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	setup.Close()

	clients, rounds := 48, 5
	if testing.Short() {
		clients, rounds = 16, 2
	}
	errCh := make(chan error, clients*rounds)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(r, i int) {
				defer wg.Done()
				c, err := client.Dial(addr, client.Options{Timeout: 30 * time.Second})
				if err != nil {
					errCh <- err
					return
				}
				defer c.Close()
				tx, err := c.Begin(ctx)
				if err != nil {
					if client.Retryable(err) {
						return // shed under load: acceptable, client went away
					}
					errCh <- err
					return
				}
				key := []byte(fmt.Sprintf("k-%03d-%03d", r, i))
				if err := run1(ctx, tx, func(b *client.Batch) { b.IndexInsert(store, key, []byte("v")) }); err != nil {
					errCh <- err
					return
				}
				switch i % 3 {
				case 0:
					// Abrupt disconnect mid-transaction: the server must
					// roll back and free the locks.
					c.Close()
				case 1:
					if err := tx.Commit(ctx); err != nil {
						errCh <- err
					}
				case 2:
					if err := tx.Rollback(ctx); err != nil {
						errCh <- err
					}
				}
			}(r, i)
		}
		wg.Wait()
	}
	close(errCh)
	for err := range errCh {
		t.Errorf("client: %v", err)
	}

	// Every session eventually deregisters, every disconnected
	// transaction is rolled back, and the lock table drains to zero.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sst := srv.Stats()
		est := db.Stats()
		if sst.SessionsOpen == 0 &&
			est.Lock.LiveRequests == 0 && est.Lock.LiveHeads == 0 &&
			est.Tx.Begins == est.Tx.Commits+est.Tx.Aborts {
			if sst.DisconnectRollbacks == 0 {
				t.Fatal("no disconnect rollback recorded despite abrupt closes")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine did not quiesce: sessions=%d liveReq=%d liveHeads=%d begins=%d commits=%d aborts=%d",
				sst.SessionsOpen, est.Lock.LiveRequests, est.Lock.LiveHeads,
				est.Tx.Begins, est.Tx.Commits, est.Tx.Aborts)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// All reader/worker/janitor goroutines must be gone.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+4 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				baseGoroutines, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
