package buffer

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/sync2"
)

// BenchmarkFixParallel measures the replacement path under parallel
// misses: a working set 4x the pool so every ~4th Fix replaces a page,
// comparing the single global clock hand against sharded replacement
// (per-shard hands + cleaner-fed free lists). Run with -cpu=8 to see the
// hand serialize; the CI bench-smoke job runs it once.
func BenchmarkFixParallel(b *testing.B) {
	const (
		frames = 1024
		pages  = 4 * frames
	)
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"single-hand", 1},
		{"sharded", AutoShards},
	} {
		b.Run(bc.name, func(b *testing.B) {
			v := newVol(b, pages)
			opts := variants()["final"]
			opts.Frames = frames
			opts.HotArray = 1024
			opts.Shards = bc.shards
			p := New(v, opts)
			defer p.Close()
			p.StartCleaner(time.Millisecond)

			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := seed.Add(0x9e3779b97f4a7c15)
				for pb.Next() {
					x = x*6364136223846793005 + 1442695040888963407
					pid := page.ID(x%pages + 1)
					f, err := p.Fix(pid, sync2.LatchSH)
					if err != nil {
						b.Error(err)
						return
					}
					p.Unfix(f, sync2.LatchSH)
				}
			})
		})
	}
}
