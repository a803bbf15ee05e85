package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at 1/50 of its horizon, both kinds of run,
// so that tier-1 catches an engine refactor that breaks the adapter, a
// workload that loses frames, a digest that depends on tracing or on the
// partition, and a BENCHMARK.json that names a metric the program does not
// emit.
func TestSmoke(t *testing.T) {
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}

	o := options{seed: 1, divisor: 50}
	for i, spec := range workloads {
		if bf.Workloads[i].Name != spec.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bf.Workloads[i].Name, spec.name)
		}
		e2e, layers := measure(spec, o), measureLayers(spec, o)
		for _, r := range []*report{e2e, layers} {
			for _, e := range r.Errors {
				t.Errorf("%s trace %d: %s", spec.name, r.Trace, e)
			}
		}
		if e2e.Counts.Digest != layers.Counts.Digest {
			t.Errorf("%s: digest differs between the two kinds of run", spec.name)
		}
		if e2e.Counts.Offered == 0 || e2e.Counts.Cycles == 0 {
			t.Errorf("%s: nothing simulated: %+v", spec.name, e2e.Counts)
		}

		got := e2e.line().Metrics
		if len(got) != len(bf.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, BENCHMARK.json lists %d", spec.name, len(got), len(bf.EndToEnd))
		}
		for _, m := range bf.EndToEnd {
			if v, ok := got[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s [%s]: emitted %+v (present %v)", spec.name, m.Name, m.Unit, v, ok)
			}
		}
		got = layers.line().Metrics
		if len(got) != len(bf.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json lists %d", spec.name, len(got), len(bf.PerLayer))
		}
		for _, m := range bf.PerLayer {
			if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s [%s]: emitted %+v (present %v)", spec.name, m.Name, m.Unit, v, ok)
			}
		}
		if b := layers.PerLayer["sim.barriers"]; (b > 0) != (spec.twin != "") {
			t.Errorf("%s: sim.barriers = %v", spec.name, b)
		}
	}
}
