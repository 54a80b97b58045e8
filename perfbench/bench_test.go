package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and
// checks the result line: outputs correct, every declared metric
// present and finite, and the span log written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				out, err := run(name, 7, 1.5, traced, dir, 1)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, out.Correct, out.Attempted, out.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if out.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, out.Metrics[d.name].Value)
						}
					}
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+"-7.jsonl")); err != nil {
				t.Errorf("span log: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %s/%s/%s, program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound of %s differs from the program's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s has a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
