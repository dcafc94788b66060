package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

// ladderSeconds is how long each rung is measured, per run.
const ladderSeconds = 5

// runLadder is Figure 7 on the live engine: the two embedded workloads
// the paper's ladder was drawn with, at each of the eight presets, with
// the share of client time the probes attribute to three layers. It is a
// report, not part of the gated benchmark.
func runLadder(spec *benchSpec, seed int64, outDir string) error {
	var b strings.Builder
	h := hostInfo()
	fmt.Fprintf(&b, "# The optimization ladder on the live engine\n\n")
	fmt.Fprintf(&b, "`bash perf/run.sh -ladder`, seed %d, %d s per run, %d clients, %d processors, %s, commit %s.\n",
		seed, ladderSeconds, clientCount(), h.NumCPU, h.Go, h.Commit)
	fmt.Fprintf(&b, "%s.\n\n", runPolicy)
	fmt.Fprintf(&b, "Throughput, median latency and CPU come from an untraced run; `client.p95_us` and the\n")
	fmt.Fprintf(&b, "`est_busy_share` columns (layer operations x probe cost / client time) from a traced one.\n")
	fmt.Fprintf(&b, "One run per cell:\n")
	fmt.Fprintf(&b, "the table shows the shape of the ladder, not differences of a few percent.\n")
	for _, w := range []workload{insertPrivate, tpccEmbedded} {
		fmt.Fprintf(&b, "\n## %s\n\n", w.name)
		fmt.Fprintf(&b, "| stage | tps | p50_us | client.p95_us | cpu_ms_per_txn | lock.est_busy_share | buffer.est_busy_share | wal.est_busy_share | lock.waits_per_ktxn | correct |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|\n")
		for _, stage := range core.Stages() {
			cfg := runConfig{w: w, seed: seed, seconds: ladderSeconds, sz: fullSizes(), stage: stage, outDir: outDir, epilogue: true}
			e2e, err := run(cfg)
			if err != nil {
				return fmt.Errorf("stage %v: %w", stage, err)
			}
			cfg.traced = true
			layers, err := run(cfg)
			if err != nil {
				return fmt.Errorf("stage %v: %w", stage, err)
			}
			for _, res := range []*runResult{e2e, layers} {
				if _, err := spec.publish(res); err != nil {
					return err
				}
			}
			m, l := e2e.Metrics, layers.Metrics
			row := fmt.Sprintf("| %v | %.0f | %.0f | %.0f | %.4f | %.3f | %.3f | %.3f | %.1f | %v |\n", stage,
				m["tps"].Value, m["p50_us"].Value, l["client.p95_us"].Value, m["cpu_ms_per_txn"].Value,
				l["lock.est_busy_share"].Value, l["buffer.est_busy_share"].Value, l["wal.est_busy_share"].Value,
				l["lock.waits_per_ktxn"].Value, e2e.Correct && layers.Correct)
			b.WriteString(row)
			fmt.Printf("%-16s %s", w.name, row)
		}
	}
	return os.WriteFile("perf/LADDER.md", []byte(b.String()), 0o644)
}
