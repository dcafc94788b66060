package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline by which an end-to-end metric may get worse
// before it counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the names, units and bounds every later
// change is judged with. The program computes the values; the file is
// the one place that says which of them are published.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory perf/run.sh runs the program in, or its parent under `go test`.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", firstErr)
}

// metrics returns the specs a run of the given kind reports.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// publish checks that res holds exactly the metrics the spec names for
// its kind of run and returns them in the spec's order.
func (s *benchSpec) publish(res *runResult) ([]metricSpec, error) {
	specs := s.metrics(res.Traced)
	for _, m := range specs {
		if _, ok := res.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("%s: BENCHMARK.json names %q, which the run did not measure", res.Workload, m.Name)
		}
	}
	if len(res.Metrics) != len(specs) {
		named := map[string]bool{}
		for _, m := range specs {
			named[m.Name] = true
		}
		for name := range res.Metrics {
			if !named[name] {
				return nil, fmt.Errorf("%s: the run measured %q, which BENCHMARK.json does not name", res.Workload, name)
			}
		}
	}
	return specs, nil
}
