package main

import "testing"

// TestSpecMatchesBenchmarkFile keeps BENCHMARK.json and spec.json in
// step: same workloads and whys, same per-layer metrics, every graded
// metric mapped on every workload, every layer mapping naming a real
// workload.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{"none": true}
	for _, w := range sp.Workloads {
		names[w.Name] = true
		if (w.Kind == "serve") != (w.Serve != nil) || (w.Kind == "offline") != (w.Offline != nil) {
			t.Errorf("workload %s: kind %q does not match its parameters", w.Name, w.Kind)
		}
	}
	for _, l := range sp.Layers {
		if !names[l.On] || !names[l.NoChangeOn] {
			t.Errorf("per-layer %s names an unknown workload (%s / %s)", l.Name, l.On, l.NoChangeOn)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s has bound %g", m.Name, m.Bound)
		}
	}
}
