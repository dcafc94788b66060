// Command perf is the repository's benchmark: five workloads on the live
// engine, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one, with every layer measured from outside — by timing
// calls into its public functions and by decorating the seams the engine
// accepts as interfaces. BENCHMARK.json at the repository root names the
// workloads and metrics; perf/README.md defines them.
//
//	bash perf/run.sh                                   every workload, both runs, a report
//	bash perf/run.sh -workload kv-outofpool -out r.json
//	bash perf/run.sh -workload tpcc-embedded -seed 3 -seconds 10 -trace 0
//	bash perf/run.sh -compare perf/baseline.json r.json
//	bash perf/run.sh -ladder
//
// perf/run.sh builds the program — a module of its own, perf/go.mod —
// and runs it from the repository root.
//
// With -workload and -trace the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics for -trace 0, the per-layer metrics for -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/core"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	outDir   string
	compare  bool
	ladder   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default: both, as a report")
	flag.StringVar(&o.out, "out", "", "write the report's results, with host metadata, to this file")
	flag.StringVar(&o.outDir, "outdir", "perf/out", "directory for span files")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments; exit 1 on a regression")
	flag.BoolVar(&o.ladder, "ladder", false, "run insert-private and tpcc-embedded at every stage of the optimization ladder and write perf/LADDER.md")
	flag.Parse()

	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.ladder {
		return runLadder(spec, o.seed, o.outDir)
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, sz: fullSizes(), stage: core.StageFinal, outDir: o.outDir, epilogue: true}

	if o.trace >= 0 {
		if len(selected) != 1 {
			return fmt.Errorf("-trace needs -workload")
		}
		cfg.w, cfg.traced = selected[0], o.trace == 1
		res, err := run(cfg)
		if err != nil {
			return err
		}
		specs, err := spec.publish(res)
		if err != nil {
			return err
		}
		printRun(os.Stdout, cfg, res, specs)
		if err := printContract(res, specs); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: a correctness check failed", res.Workload)
		}
		return nil
	}

	report := suite{Host: hostInfo(), Seed: o.seed, Seconds: o.seconds}
	correct := true
	for _, w := range selected {
		row := suiteRow{Workload: w.name}
		for _, traced := range []bool{false, true} {
			cfg.w, cfg.traced = w, traced
			res, err := run(cfg)
			if err != nil {
				return err
			}
			specs, err := spec.publish(res)
			if err != nil {
				return err
			}
			printRun(os.Stdout, cfg, res, specs)
			correct = correct && res.Correct
			if traced {
				row.PerLayer = res
			} else {
				row.EndToEnd = res
			}
		}
		report.Workloads = append(report.Workloads, row)
	}
	report.reconcile(os.Stdout)
	if o.out != "" {
		b, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The benchmark defines names and noise bounds; it claims nothing.
	fmt.Printf("{\"workloads\": %d, \"correct\": %v, \"claim\": null}\n", len(report.Workloads), correct)
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// host is the metadata a result file carries, so that two files are only
// compared knowingly across machines.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", Commit: "unknown"}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(rel))
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	return h
}

// suite is a result file: every workload's two runs.
type suite struct {
	Host      host       `json:"host"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Workloads []suiteRow `json:"workloads"`
	Claim     *string    `json:"claim"` // always null: see mainErr
}

type suiteRow struct {
	Workload string     `json:"workload"`
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

func (s *suite) row(name string) *suiteRow {
	for i := range s.Workloads {
		if s.Workloads[i].Workload == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

// runPolicy is printed with every run: the statements a reader needs to
// compare the numbers with anyone else's.
const runPolicy = "closed loop, zero think time; strict durability: Commit returns once its record is below the log store's durable mark; data and log in memory"

func printRun(w *os.File, cfg runConfig, res *runResult, specs []metricSpec) {
	kind := "untraced run: end-to-end metrics, median of %d windows [min max] [every window]"
	if res.Traced {
		kind = "traced run: per-layer metrics over windows 2-%d (window 1 is the untraced reference)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  %d clients  "+kind+"\n   %s\n",
		res.Workload, cfg.seed, cfg.seconds, cfg.sz.clients, windows, runPolicy)
	for _, m := range specs {
		v := res.Metrics[m.Name]
		if res.Traced {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.Name, v.Value, m.Unit)
		} else {
			fmt.Fprintf(w, "  %-40s %14.4f %-8s [%.4f %.4f] %.4g\n", m.Name, v.Value, m.Unit, v.Min, v.Max, v.Windows)
		}
	}
	for _, p := range res.Probes {
		fmt.Fprintf(w, "  probe %-34s %14.1f ns/op over %d iterations\n", p.Name, p.NsOp, p.Iters)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "  %d spans in %s (%d dropped)\n", res.Spans, res.SpanFile, res.Dropped)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED TRANSACTION %s\n", e)
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  %d checks, correct: %v\n", len(res.Checks), res.Correct)
}

// printContract prints the one-line result a driver of the benchmark
// reads.
func printContract(res *runResult, specs []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range specs {
		line.Metrics[m.Name] = value{res.Metrics[m.Name].Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// reconcile prints how tpcc-remote's latency decomposes against
// tpcc-embedded's: the front end's added latency is its round trips plus
// the client's own work, less the engine time both rows share.
func (s *suite) reconcile(w *os.File) {
	emb, rem := s.row(tpccEmbedded.name), s.row(tpccRemote.name)
	if emb == nil || rem == nil {
		return
	}
	l := rem.PerLayer.Metrics
	embedded, remote := emb.EndToEnd.Metrics["p50_us"].Value, rem.EndToEnd.Metrics["p50_us"].Value
	n := l["wire.roundtrips_per_txn"].Value
	trips, service := n*l["wire.rtt_us_p50"].Value, n*l["server.service_us_p50"].Value
	overhead := l["client.overhead_us_p50"].Value
	fmt.Fprintf(w, "\n== reconciliation (medians of a two-type mix, so the sums are approximate)\n")
	fmt.Fprintf(w, "   tpcc-remote p50 %.1f us = tpcc-embedded p50 %.1f us + front end %.1f us\n", remote, embedded, remote-embedded)
	fmt.Fprintf(w, "   %.2f round trips x rtt p50 = %.1f us: server service %.1f us (the engine's work included), wire + kernel %.1f us\n", n, trips, service, trips-service)
	fmt.Fprintf(w, "   client overhead p50 %.1f us; round trips + overhead = %.1f us\n", overhead, trips+overhead)
}
