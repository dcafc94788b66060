package tpcc

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/wal"
)

// TestCrashKeepsAcknowledgedCommits is the crash audit of the commit path,
// on every stage of the ladder and on the partition executor, PLP and
// snapshot reads at final. Two clients run the five transactions until the
// plug is pulled mid-stream (CrashHard: only what group commit made
// durable survives). The database reopened over the same volume and log
// must pass Audit: whatever was in flight at the crash may survive or not,
// but every acknowledged commit is there.
func TestCrashKeepsAcknowledgedCommits(t *testing.T) {
	type config struct {
		name string
		cfg  core.Config
	}
	var configs []config
	for _, stage := range core.Stages() {
		configs = append(configs, config{stage.String(), core.StageConfig(stage)})
	}
	final := core.StageConfig(core.StageFinal)
	dora, plp, snapshot := final, final, final
	dora.DORA, plp.PLP, snapshot.Snapshot = true, true, true
	configs = append(configs, config{"dora", dora}, config{"plp", plp}, config{"snapshot", snapshot})
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			scale := TinyScale()
			vol, logStore, cfg := disk.NewMem(0), wal.NewMemSegmentStore(0), c.cfg
			cfg.Frames, cfg.DoraPartitions, cfg.DoraKeys = 2048, 2, scale.Warehouses
			e, err := core.Open(vol, logStore, cfg)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Load(e, scale, 42)
			if err != nil {
				e.Close()
				t.Fatal(err)
			}
			base, err := db.Baseline(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			tally := NewTally(scale)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			drained := make(chan struct{})
			go func() {
				Drive(ctx, db.Executor, Mix{Payment: 40, NewOrder: 45, OrderStatus: 5, StockLevel: 5, Delivery: 5}, 2, 7, tally)
				close(drained)
			}()
			awaitAcks(t, tally, 300)
			failed := tally.Failed.Sum()
			e.CrashHard()
			cancel()
			<-drained
			if failed != 0 {
				t.Fatalf("%d transactions failed before the crash: %v", failed, tally.Errors)
			}

			e2, err := core.Open(vol, logStore, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e2.Close()
			db2, err := db.Reopen(e2)
			if err != nil {
				t.Fatal(err)
			}
			if err := db2.Audit(context.Background(), base, tally); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// awaitAcks waits until tally's clients have been acknowledged n times.
func awaitAcks(t *testing.T, tally *Tally, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); tally.Acked.Sum() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d acknowledgements after a minute; failures: %v", tally.Acked.Sum(), n, tally.Errors)
		}
	}
}
