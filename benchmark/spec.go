package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and regression bounds are written down. The harness reads it
// rather than repeating it, so a unit or a bound cannot drift between the
// file the driver checks and the numbers the harness prints.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list (run from the repository root, or pass -spec): %w", err)
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// find returns the spec entry for a metric name.
func (sp *benchSpec) find(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// fill stamps every measured metric with its unit. A metric the harness
// measures but the spec does not list is a bug in one of the two.
func (sp *benchSpec) fill(res *result) error {
	for name, s := range res.Metrics {
		m, ok := sp.find(name)
		if !ok {
			return fmt.Errorf("metric %q is measured but not listed in BENCHMARK.json", name)
		}
		s.Unit = m.Unit
		res.Metrics[name] = s
	}
	return nil
}
