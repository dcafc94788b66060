package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readSuite(path string) (*suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict compares one end-to-end metric of a baseline run with a
// candidate's. worse is the candidate's relative change in the bad
// direction; spread is the wider of the two runs' interquartile ranges
// over their windows, as a share of the median. A
// change counts only when it exceeds both the metric's bound and the
// spread; a spread wider than the bound means "no change" cannot be told
// from a change of the bound's size, so the row is unresolved.
func verdict(m metricSpec, base, cand metricValue) (status string, worse, spread float64) {
	worse = div(cand.Value-base.Value, base.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	spread = math.Max(div(base.Q3-base.Q1, base.Value), div(cand.Q3-cand.Q1, cand.Value))
	switch {
	case worse > m.Bound && worse > spread:
		return "regressed", worse, spread
	case -worse > m.Bound && -worse > spread:
		return "improved", worse, spread
	case spread > m.Bound:
		return "unresolved", worse, spread
	}
	return "unchanged", worse, spread
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error if any row regressed or a candidate run is missing or
// incorrect.
func compareFiles(spec *benchSpec, basePath, candPath string) error {
	base, err := readSuite(basePath)
	if err != nil {
		return err
	}
	cand, err := readSuite(candPath)
	if err != nil {
		return err
	}
	if base.Host != cand.Host || base.Seed != cand.Seed || base.Seconds != cand.Seconds {
		fmt.Printf("note: the two files differ in host, commit, seed or duration:\n  %+v seed %d %gs\n  %+v seed %d %gs\n",
			base.Host, base.Seed, base.Seconds, cand.Host, cand.Seed, cand.Seconds)
	}
	fmt.Printf("%-18s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		b, c := base.row(w.Name), cand.row(w.Name)
		if b == nil || c == nil || b.EndToEnd == nil || c.EndToEnd == nil {
			if b != nil && b.EndToEnd != nil {
				fmt.Printf("%-18s missing from %s\n", w.Name, candPath)
				bad++
			}
			continue
		}
		if !c.EndToEnd.Correct || (c.PerLayer != nil && !c.PerLayer.Correct) {
			fmt.Printf("%-18s a correctness check failed in %s\n", w.Name, candPath)
			bad++
		}
		for _, m := range spec.EndToEnd {
			bv, cv := b.EndToEnd.Metrics[m.Name], c.EndToEnd.Metrics[m.Name]
			status, worse, spread := verdict(m, bv, cv)
			if status == "regressed" {
				bad++
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %+8.1f%% %7.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, bv.Value, cv.Value, 100*worse, 100*spread, 100*m.Bound, status)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressed, missing or incorrect rows", bad)
	}
	return nil
}
