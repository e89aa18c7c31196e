package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// in step with the metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (entry{m.Name, m.Unit, m.Better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %s %s %s", kind, i, got[i], m.Name, m.Unit, m.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
