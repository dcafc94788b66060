package soak

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestCrashSoak is the headline robustness gate: 30 randomized
// kill-and-recover cycles, every crash flavor, full audit after each.
func TestCrashSoak(t *testing.T) {
	cfg := DefaultConfig(0x50AC)
	if testing.Short() {
		cfg.Cycles = 8
	}
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 25 && !testing.Short() {
		t.Fatalf("ran %d cycles, want >= 25", res.Cycles)
	}
	if res.Transfers == 0 {
		t.Fatal("no transfer ever committed")
	}
	if res.SegmentsArchived == 0 {
		t.Fatal("no log segments archived")
	}
	if res.TornBytesClipped == 0 {
		t.Fatal("no torn tail was ever clipped — torn-log crashes did not exercise the clip path")
	}
	t.Logf("soak: %d cycles %v, %d transfers, %d B torn clipped, %d segments archived, max recovery %v, max redo span %d B",
		res.Cycles, res.CrashModes, res.Transfers, res.TornBytesClipped,
		res.SegmentsArchived, res.MaxRecoveryTime, res.MaxRedoSpan)
}

// TestCrashSoakSeeds runs short soaks under a few extra seeds so a lucky
// mode sequence cannot hide a bug behind the fixed headline seed, and one
// of them again at StagePipeline: transactions that let their locks go
// before their commit is durable, killed, torn and failed the same ways.
func TestCrashSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("headline soak covers short mode")
	}
	for _, run := range []struct {
		seed  int64
		stage core.Stage
	}{{1, core.StageFinal}, {7, core.StageFinal}, {1009, core.StageFinal}, {7, core.StagePipeline}} {
		t.Run(fmt.Sprintf("seed=%d/%v", run.seed, run.stage), func(t *testing.T) {
			cfg := DefaultConfig(run.seed)
			cfg.Cycles = 6
			cfg.Stage = run.stage
			if _, err := Run(cfg); err != nil {
				t.Fatalf("seed %d: %v", run.seed, err)
			}
		})
	}
}
