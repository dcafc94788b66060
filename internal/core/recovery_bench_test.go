package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// BenchmarkRecoveryReplay measures restart recovery over a crash image
// with a long redo tail, one redo worker against several. The
// crash image is built once; every iteration recovers a fresh clone.
func BenchmarkRecoveryReplay(b *testing.B) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(1 << 20)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 512
	cfg.RedoWorkers = 1
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		b.Fatal(err)
	}
	store := createTable(b, e)
	var rids []page.RID
	const rows = 2000
	for i := 0; i < rows; i++ {
		tx, _ := e.Begin()
		rid, err := e.HeapInsertCtx(context.Background(), tx, store, []byte(fmt.Sprintf("bench-row-%06d-%032d", i, i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			b.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < rows; i++ {
		tx, _ := e.Begin()
		if err := e.HeapUpdateCtx(context.Background(), tx, store, rids[i], []byte(fmt.Sprintf("bench-upd-%06d-%032d", i, i))); err != nil {
			b.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		b.Fatal(err)
	}
	e.CrashHard()

	// Exercise the partitioned path even on small machines: the point of
	// the second variant is the parallel dispatcher, not raw speedup.
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	for _, workers := range []int{1, parallel} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var replayed uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v := vol.Clone()
				ls := logStore.Clone()
				rcfg := cfg
				rcfg.RedoWorkers = workers
				b.StartTimer()
				re, err := Open(v, ls, rcfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				replayed = re.Stats().Recovery.RecordsReplayed
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(replayed), "records/recovery")
		})
	}
}
