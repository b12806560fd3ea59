// Command ivmfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload for a fixed time, checks that every
// output it saw is correct, and prints every metric with its unit:
//
//	ivmfbench --workload serve-read --seed 1 --seconds 30 --trace 0
//
// Workloads (parameters in spec.json):
//
//   - serve-read: the real ivmfd process with 8 tenants, an open-loop
//     predict/topn read mix, no writes.
//   - serve-stream: the same server and tenants, each tenant also
//     replaying held-out cells as update jobs, open loop; the server is
//     then SIGKILLed and restarted on its data dir.
//   - offline-batch: one closed-loop caller of the library path: a dense
//     faces decomposition, a sparse CF decomposition and an AI-PMF
//     training per iteration.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it records spans around the calls it makes into each
// layer and reports the per-layer metrics instead; the spans are written
// to the output directory when the run ends. A traced run traces half of
// its measured operations and compares them with the other half for the
// tracing overhead.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// The line before it is the full report: run metadata, every metric
// with its sample count, the correctness checks and the harness checks.
// The benchmark is normally run through run.sh, which builds ivmfd and
// this program from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number. Samples and Note appear only in the
// full report line, never in the result line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// check is one correctness or harness check. Every check a workload
// defines is always evaluated and reported.
type check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

type checkList []check

func (c *checkList) add(name string, pass bool, format string, args ...any) {
	*c = append(*c, check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

func (c checkList) pass() bool {
	for _, k := range c {
		if !k.Pass {
			return false
		}
	}
	return true
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// metrics holds the workload's named metrics (the names the issue
	// tracker and spec.json use); graded maps each end-to-end metric of
	// BENCHMARK.json onto one of them.
	metrics map[string]metric
	checks  checkList
	harness map[string]any
	params  any
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	ivmfd    string // ivmfd binary
	out      string // scratch and trace directory
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: serve-read, serve-stream, offline-batch, or all (each in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", "..", "checkout root")
	flag.StringVar(&cfg.ivmfd, "ivmfd", "", "ivmfd binary (serve workloads)")
	flag.StringVar(&cfg.out, "out", "", "directory for run data and traces (default <root>/.bench_build/runs)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "ivmfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build", "runs")
	}
	workloads := []string{cfg.workload}
	if cfg.workload == "all" {
		workloads = []string{"serve-read", "serve-stream", "offline-batch"}
	}
	for _, w := range workloads {
		cfg.workload = w
		if err := run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ivmfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
	}
}

func run(cfg config) error {
	sp, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	ws, ok := sp.workload(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("bad --seconds %d", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.out, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	md := collectMeta(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var o *outcome
	switch ws.Kind {
	case "serve":
		o, err = runServe(cfg, ws.Serve, dir, tr)
	case "offline":
		o, err = runOffline(cfg, ws.Offline, tr)
	default:
		err = fmt.Errorf("workload %q has unknown kind %q", ws.Name, ws.Kind)
	}
	if err != nil {
		return err
	}

	var names []specMetric
	if cfg.trace {
		names = sp.PerLayer
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		o.harness["trace_file"] = path
		o.harness["spans"] = tr.count()
		self := map[string]float64{}
		for name, st := range layerStats(tr.snapshot()) {
			for _, d := range st.self {
				self[name] += d / 1e6
			}
		}
		o.harness["span_self_ms"] = self
	} else {
		names = sp.EndToEnd
	}
	res := result{
		Correct:   o.checks.pass(),
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	idle := map[string]bool{}
	for _, n := range ws.Idle {
		idle[n] = true
	}
	for _, m := range names {
		src := m.Name
		if alias, ok := ws.Graded[m.Name]; ok && !cfg.trace {
			src = alias
		}
		v, ok := o.metrics[src]
		switch {
		case ok && cfg.trace && idle[src]:
			return fmt.Errorf("workload %s measured %s, which spec.json lists as idle", cfg.workload, src)
		case !ok && cfg.trace && idle[src]:
			// A layer the workload never calls: zero is its measurement.
			v = metric{Unit: m.Unit, Note: "layer idle on this workload"}
			o.metrics[src] = v
		case !ok:
			return fmt.Errorf("workload %s did not produce metric %s (%s)", cfg.workload, m.Name, src)
		}
		res.Metrics[m.Name] = metric{Value: v.Value, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}

	rep := report{
		Benchmark: "ivmfbench",
		Workload:  cfg.workload,
		Traced:    cfg.trace,
		Meta:      md,
		Params:    o.params,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
		Graded:    ws.Graded,
		Checks:    o.checks,
		Harness:   o.harness,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one run, printed before the result.
type report struct {
	Benchmark string            `json:"benchmark"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Meta      meta              `json:"meta"`
	Params    any               `json:"params"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Graded    map[string]string `json:"graded"`
	Checks    checkList         `json:"checks"`
	Harness   map[string]any    `json:"harness"`
}

// since is time.Since in milliseconds.
func since(t time.Time) float64 { return ms(time.Since(t)) }
