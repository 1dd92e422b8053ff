package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json at the repository root: the single source of the
// workload names and of every metric's name, unit, direction and bound.
// The program computes metrics by name and refuses a spec naming one it
// cannot compute.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot returns the repository root: the directory holding
// BENCHMARK.json, which is the working directory when the benchmark runs
// through bench/run.sh and its parent under `go test`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not implement", w.Name)
		}
	}
	for _, m := range s.EndToEnd {
		if _, ok := endToEnd[m.Name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not compute", m.Name)
		}
	}
	return &s, nil
}
