package wal_test

import (
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/waltest"
)

// TestSubscribeHandsOff: a subscriber never runs the drain it asks for, so
// a commit that waits on a subscription and a context can always stop
// waiting. With the store's Flush held at a gate, Subscribe returns at
// once, and its channel resolves once the gate opens.
func TestSubscribeHandsOff(t *testing.T) {
	for _, d := range []wal.Design{wal.DesignDecoupled, wal.DesignConsolidated} {
		t.Run(d.String(), func(t *testing.T) {
			gs := waltest.NewGateStore(wal.NewMemSegmentStore(0))
			m := wal.New(gs, wal.Options{Design: d})
			defer m.Close()
			defer gs.Open()
			if _, err := m.Insert(&wal.Record{Type: wal.RecUpdate, TxID: 1, Redo: []byte("redo")}); err != nil {
				t.Fatal(err)
			}
			parked := gs.Shut()
			target := m.CurLSN()
			subscribed := make(chan (<-chan error), 1)
			go func() { subscribed <- m.Subscribe(target) }()
			var ch <-chan error
			select {
			case ch = <-subscribed:
			case <-time.After(10 * time.Second):
				t.Fatal("Subscribe waited for the drain it asked for")
			}
			<-parked // the flusher's drain is at the gate
			select {
			case err := <-ch:
				t.Fatalf("the subscription resolved with %v while the store's Flush was held", err)
			default:
			}
			gs.Open()
			select {
			case err := <-ch:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the subscription never resolved after the gate opened")
			}
			if durable := m.DurableLSN(); durable < target {
				t.Fatalf("resolved with durable at %v, target %v", durable, target)
			}
		})
	}
}
