package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imatrix"
	"repro/internal/ipmf"
	"repro/internal/recommend"
	"repro/internal/sparse"
)

// offlineInputs is the offline-batch workload's data: the ORL-like
// faces interval matrix (dense) and a MovieLensLike CF interval matrix
// (sparse), both drawn from the seed.
type offlineInputs struct {
	faces   *imatrix.IMatrix
	cf      *sparse.ICSR
	cfDense *imatrix.IMatrix // the CF matrix densified, for the H-mean only
}

func makeOfflineInputs(seed int64, p *offlineParams) (*offlineInputs, error) {
	fd, err := dataset.GenerateFaces(dataset.DefaultFaces(), rand.New(rand.NewSource(seed*31+1)))
	if err != nil {
		return nil, err
	}
	rd, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(p.CFScale), rand.New(rand.NewSource(seed*31+2)))
	if err != nil {
		return nil, err
	}
	cf := rd.CFIntervalsCSR()
	return &offlineInputs{faces: fd.Interval, cf: cf, cfDense: cf.ToIMatrix()}, nil
}

// offlineIter is one closed-loop iteration's timings and quality.
type offlineIter struct {
	denseMs, sparseMs, aipmfMs float64
	// CPU time of the benchmark process during each call, which unlike
	// wall time leaves out time the host of a virtual machine stole.
	denseCPUMs, sparseCPUMs, aipmfCPUMs float64
	traced                              bool
	denseHMean, sparseHMean             float64
	// timings holds the two decompositions' phase timings; the
	// decompositions themselves are dropped, so the harness's memory
	// does not grow with the number of iterations.
	timings []core.Timings
	aipmfOK bool
	err     error
}

// iterate runs the library path once: dense decompose, sparse
// decompose, AI-PMF training, each timed on its own.
func (in *offlineInputs) iterate(seed int64, p *offlineParams, tr *tracer) offlineIter {
	it := offlineIter{traced: tr != nil}
	// timed runs one call inside a span and returns its wall and CPU
	// time. Each call starts from a collected heap with its free memory
	// returned to the OS, so neither its time nor the process's peak
	// memory depends on what the calls before it left behind.
	timed := func(name, req string, fn func()) (wallMs, cpuMs float64) {
		debug.FreeOSMemory()
		c0 := selfCPUMs()
		t0 := time.Now()
		tr.do(name, 0, req, fn)
		return since(t0), selfCPUMs() - c0
	}
	var dense, sparse *core.Decomposition
	it.denseMs, it.denseCPUMs = timed("core.Decompose", "dense", func() {
		dense, it.err = core.Decompose(in.faces, core.ISVD4, core.Options{Rank: p.DenseRank, Target: core.TargetB})
	})
	if it.err != nil {
		return it
	}
	it.sparseMs, it.sparseCPUMs = timed("core.DecomposeSparse", "sparse", func() {
		sparse, it.err = core.DecomposeSparse(in.cf, core.ISVD4, core.Options{Rank: p.CFRank, Target: core.TargetB})
	})
	if it.err != nil {
		return it
	}
	var model *ipmf.IntervalModel
	it.aipmfMs, it.aipmfCPUMs = timed("ipmf.TrainAIPMFCSR", "aipmf", func() {
		model, it.err = ipmf.TrainAIPMFCSR(in.cf, ipmf.Config{Rank: p.CFRank}, rand.New(rand.NewSource(seed)))
	})
	if it.err != nil {
		return it
	}
	// Quality is checked outside the timed calls.
	it.denseHMean = dense.Evaluate(in.faces).HMean
	it.sparseHMean = sparse.Evaluate(in.cfDense).HMean
	it.timings = []core.Timings{dense.Timings, sparse.Timings}
	it.aipmfOK = finiteModel(recommend.FromIntervalModel(model, minRating, maxRating), in.cf)
	return it
}

// finiteModel reports whether the trained model predicts a finite
// interval for every observed cell.
func finiteModel(pred *recommend.Predictor, cf *sparse.ICSR) bool {
	ok := true
	cf.ForEachRow(func(i int, cols []int, _, _ []float64) {
		for _, j := range cols {
			iv, err := pred.PredictInterval(i, j)
			if err != nil || math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
				ok = false
			}
		}
	})
	return ok
}

func runOffline(cfg config, p *offlineParams, tr *tracer) (*outcome, error) {
	if p == nil {
		return nil, fmt.Errorf("offline workload without offline parameters")
	}
	o := &outcome{metrics: map[string]metric{}, harness: map[string]any{}, params: p}

	n := setups
	if tr != nil {
		n = 1
	}
	var setupS []float64
	var in *offlineInputs
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		in, err = makeOfflineInputs(cfg.seed, p)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: len(setupS)}
	o.harness["setup_s_each"] = setupS

	var its []offlineIter
	steal0, ticks0 := cpuTicks()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(its) == 0 || time.Now().Before(deadline) {
		// A traced run traces every other iteration, so the rest give
		// the tracing overhead.
		itr := tr
		if len(its)%2 == 1 {
			itr = nil
		}
		its = append(its, in.iterate(cfg.seed, p, itr))
	}
	o.harness["cpu_steal_frac"] = stealFrac(steal0, ticks0)

	var denseMs, sparseMs, aipmfMs, denseCPU, sparseCPU, aipmfCPU []float64
	badHMean, errs := 0, 0
	var firstErr error
	var lastDense, lastSparse float64
	for _, it := range its {
		o.attempted += 3
		if it.err != nil {
			o.failed += 3
			errs++
			if firstErr == nil {
				firstErr = it.err
			}
			continue
		}
		denseMs = append(denseMs, it.denseMs)
		sparseMs = append(sparseMs, it.sparseMs)
		aipmfMs = append(aipmfMs, it.aipmfMs)
		denseCPU = append(denseCPU, it.denseCPUMs)
		sparseCPU = append(sparseCPU, it.sparseCPUMs)
		aipmfCPU = append(aipmfCPU, it.aipmfCPUMs)
		lastDense, lastSparse = it.denseHMean, it.sparseHMean
		for _, c := range []struct {
			ms, limit float64
			ok        bool
		}{
			{it.denseMs, p.OpLimitMs, math.Abs(it.denseHMean-p.DenseHMeanRef) <= p.HMeanTol},
			{it.sparseMs, p.OpLimitMs, math.Abs(it.sparseHMean-p.SparseHMeanRef) <= p.HMeanTol},
			{it.aipmfMs, p.OpLimitMs, it.aipmfOK},
		} {
			if !c.ok {
				badHMean++
			}
			if !c.ok || c.ms > c.limit {
				o.failed++
			}
		}
	}
	addLatency(o, "decompose_dense", denseMs)
	addLatency(o, "decompose_sparse", sparseMs)
	addLatency(o, "aipmf_train", aipmfMs)
	addCPU(o, "decompose_dense", denseCPU)
	addCPU(o, "decompose_sparse", sparseCPU)
	addCPU(o, "aipmf_train", aipmfCPU)
	o.metrics["ok_frac"] = metric{Value: float64(o.attempted-o.failed) / float64(o.attempted), Unit: "frac", Samples: o.attempted}
	o.metrics["failed_frac"] = metric{Value: float64(o.failed) / float64(o.attempted), Unit: "frac", Samples: o.attempted}
	o.checks.add("library calls succeed", errs == 0, "%d failed iterations; first: %v", errs, firstErr)
	o.checks.add("H-mean within tolerance of the reference, AI-PMF finite", badHMean == 0,
		"dense %.4f (ref %g), sparse %.4f (ref %g), tol %g; %d bad results",
		lastDense, p.DenseHMeanRef, lastSparse, p.SparseHMeanRef, p.HMeanTol, badHMean)
	o.harness["iterations"] = len(its)

	rss, err := vmHWMMB(os.Getpid())
	if err != nil {
		return nil, fmt.Errorf("read VmHWM: %w", err)
	}
	o.metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB", Note: "VmHWM of the benchmark process, which runs the library"}

	if tr != nil {
		if err := offlineLayers(p, in, its, tr, o); err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
	}
	return o, nil
}

// addCPU records name_cpu_p50_ms, the median CPU time of one call.
func addCPU(o *outcome, name string, xs []float64) {
	o.metrics[name+"_cpu_p50_ms"] = metric{Value: median(xs), Unit: "ms", Samples: len(xs),
		Note: "CPU time of the benchmark process during the call"}
}
