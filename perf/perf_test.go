package main

import (
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/tpcc"
)

// tinySizes is a database that loads in milliseconds, driven by two
// clients, so that the test also covers what set-up does to let two
// writers into the order trees (growOrderTrees).
func tinySizes(slowDevice bool) sizes {
	sz := fullSizes()
	sz.clients = 2
	sz.tpcc = tpcc.Scale{Warehouses: 2, Districts: 10, Customers: 100, Items: 1000, StockPerItem: true}
	sz.tpccFrames = 4096
	sz.insertBatch, sz.insertSeedBatches = 100, 2
	sz.kvKeys, sz.kvFrames = 8000, 64
	if !slowDevice {
		sz.kvService = 0
	}
	return sz
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON checks the file against the contract its readers
// rely on and against the workloads the program has.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestSmoke runs every workload both ways for a second at a tiny scale:
// every metric BENCHMARK.json names is measured, nothing else is, and
// the correctness checks pass. -short and -race skip the device service
// time, the crash epilogue and the probes.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	full := !testing.Short() && !raceEnabled
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{
				w: w, seed: 1, seconds: 1, traced: traced, sz: tinySizes(full),
				stage: core.StageFinal, outDir: t.TempDir(), epilogue: full,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if _, err := spec.publish(res); err != nil {
				t.Error(err)
			}
			for _, e := range res.Errors {
				t.Logf("%s traced=%v: failed transaction: %s", w.name, traced, e)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %q failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			if len(res.Checks) == 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d checks, %d transactions", w.name, traced, len(res.Checks), res.Attempted)
			}
			if traced && res.Spans == 0 {
				t.Errorf("%s: a traced run wrote no spans", w.name)
			}
			if full && traced && w.name != tpccRemote.name && res.Metrics["core.recovery_ms"].Value <= 0 {
				t.Errorf("%s: the crash epilogue reported no recovery", w.name)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "tps", Better: "higher", Bound: 0.10}
	tight := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.8, Q3: v * 1.2} }
	for _, c := range []struct {
		m          metricSpec
		base, cand metricValue
		want       string
	}{
		{lower, tight(100), tight(105), "unchanged"},
		{lower, tight(100), tight(120), "regressed"},
		{lower, tight(100), tight(80), "improved"},
		{higher, tight(100), tight(80), "regressed"},
		{higher, tight(100), tight(120), "improved"},
		{lower, wide(100), tight(120), "unresolved"},
		{lower, wide(100), tight(101), "unresolved"},
		{lower, wide(100), tight(160), "regressed"},
	} {
		if got, _, _ := verdict(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base, c.cand, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 100], n=4) == [2.25, 4.5, 6.75]
	s := summarize([]float64{100, 3, 1, 4, 2, 7, 5, 6})
	if s.med != 4.5 || s.q1 != 2.25 || s.q3 != 6.75 || s.lo != 1 || s.hi != 100 {
		t.Errorf("%+v", s)
	}
	if s := summarize([]float64{3}); s.med != 3 || s.q1 != 3 || s.q3 != 3 {
		t.Errorf("%+v", s)
	}
}
