package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec.json holds what BENCHMARK.json has no room for: each workload's
// parameters, which of its metrics each graded end-to-end metric reads,
// and for every per-layer metric the end-to-end metric and workload it
// should move and the workload on which it should predict no change.
//
//go:embed spec.json
var specJSON []byte

// Settings shared by every workload.
const (
	// setups is how many times a run sets up; setup_s is their median.
	setups = 9
	// restarts is how many SIGKILL restarts a serve run times.
	restarts = 3
	// maxGenLagP99Ms is the generator lateness beyond which a serve
	// run is invalid.
	maxGenLagP99Ms = 200
	// minRating and maxRating are the rating scale of every CF input.
	minRating, maxRating = 1.0, 5.0
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type serveParams struct {
	Tenants      int     `json:"tenants"`
	Scale        float64 `json:"scale"`
	Rank         int     `json:"rank"`
	HoldOut      float64 `json:"hold_out"`
	ReadRatePerS float64 `json:"read_rate_per_s"`
	TopNEvery    int     `json:"topn_every"`
	PredictCells int     `json:"predict_cells"`
	TopNN        int     `json:"topn_n"`
	ZipfS        float64 `json:"zipf_s"`
	ReadLimitMs  float64 `json:"read_limit_ms"`
	// UpdateIntervalMs is each tenant's update period; 0 sends no
	// updates.
	UpdateIntervalMs float64 `json:"update_interval_ms"`
	UpdateLimitMs    float64 `json:"update_limit_ms"`
}

type offlineParams struct {
	DenseRank      int     `json:"dense_rank"`
	CFScale        float64 `json:"cf_scale"`
	CFRank         int     `json:"cf_rank"`
	DenseHMeanRef  float64 `json:"dense_hmean_ref"`
	SparseHMeanRef float64 `json:"sparse_hmean_ref"`
	HMeanTol       float64 `json:"hmean_tol"`
	OpLimitMs      float64 `json:"op_limit_ms"`
}

type specWorkload struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Why    string            `json:"why"`
	Graded map[string]string `json:"graded"`
	// Idle names the per-layer metrics of layers this workload never
	// calls; a traced run reports them as 0. Every other per-layer
	// metric must be measured.
	Idle    []string       `json:"idle"`
	Serve   *serveParams   `json:"serve,omitempty"`
	Offline *offlineParams `json:"offline,omitempty"`
}

type layerMapping struct {
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Moves      string `json:"moves"`
	On         string `json:"on"`
	NoChangeOn string `json:"no_change_on"`
	How        string `json:"how"`
}

// spec is BENCHMARK.json (the metric names, units and bounds the
// results are judged by) joined with spec.json.
type spec struct {
	EndToEnd  []specMetric
	PerLayer  []specMetric
	Workloads []specWorkload
	Layers    []layerMapping
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads <root>/BENCHMARK.json and the embedded spec.json and
// checks that they agree.
func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	var sj struct {
		Workloads []specWorkload `json:"workloads"`
		PerLayer  []layerMapping `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON, &sj); err != nil {
		return nil, fmt.Errorf("parse spec.json: %w", err)
	}
	sp := &spec{EndToEnd: bf.EndToEnd, PerLayer: bf.PerLayer, Workloads: sj.Workloads, Layers: sj.PerLayer}
	if err := sp.consistent(bf); err != nil {
		return nil, err
	}
	return sp, nil
}

// consistent checks that both files name the same workloads and
// per-layer metrics and that every workload maps every graded metric.
func (sp *spec) consistent(bf benchmarkFile) error {
	if len(bf.Workloads) != len(sp.Workloads) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, spec.json %d", len(bf.Workloads), len(sp.Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != sp.Workloads[i].Name || w.Why != sp.Workloads[i].Why {
			return fmt.Errorf("workload %d differs between BENCHMARK.json (%s) and spec.json (%s)", i, w.Name, sp.Workloads[i].Name)
		}
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			if w.Graded[m.Name] == "" {
				return fmt.Errorf("workload %s does not map end-to-end metric %s", w.Name, m.Name)
			}
		}
		if len(w.Graded) != len(sp.EndToEnd) {
			return fmt.Errorf("workload %s maps %d metrics, BENCHMARK.json grades %d", w.Name, len(w.Graded), len(sp.EndToEnd))
		}
	}
	layer := map[string]bool{}
	for _, m := range sp.PerLayer {
		layer[m.Name] = true
	}
	for _, w := range sp.Workloads {
		for _, n := range w.Idle {
			if !layer[n] {
				return fmt.Errorf("workload %s lists %s as idle, which is no per-layer metric", w.Name, n)
			}
		}
	}
	if len(sp.Layers) != len(sp.PerLayer) {
		return fmt.Errorf("BENCHMARK.json has %d per-layer metrics, spec.json %d", len(sp.PerLayer), len(sp.Layers))
	}
	for i, m := range sp.PerLayer {
		if sp.Layers[i].Name != m.Name {
			return fmt.Errorf("per-layer metric %d is %s in BENCHMARK.json but %s in spec.json", i, m.Name, sp.Layers[i].Name)
		}
	}
	return nil
}

func (sp *spec) workload(name string) (specWorkload, bool) {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return specWorkload{}, false
}
