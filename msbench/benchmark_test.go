package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json at the
// repository root to the metrics this program reports: the same names,
// units, directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadOrder) && w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadOrder[i])
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s %s %s %v",
					kind, i, g, w.Name, w.Unit, w.Better, w.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	for _, d := range perLayer {
		if d.Module == "" {
			t.Errorf("%s names no module", d.Name)
		}
		if d.Module != "benchmark" && (d.Moves == "" || d.On == "") {
			t.Errorf("%s does not say which end-to-end metric it should move, and where", d.Name)
		}
	}
}
