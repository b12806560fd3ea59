package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/update"
)

// Per-layer metrics are measured from outside each layer: the spans the
// benchmark records around its calls into the layer's public functions,
// on the workload's own inputs. A layer the workload does not call is
// listed as idle in spec.json and reports 0.

// aipmfEpochs is ipmf.Config's documented default epoch count, which
// the workload trains with.
const aipmfEpochs = 60

// probeReads is how many of the window's recorded reads the handler
// and recommend probes replay.
const probeReads = 2000

// layerSet collects per-layer metrics by name.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string, n int) {
	l[name] = metric{Value: v, Unit: unit, Samples: n}
}

// p50 reads the median span duration of name, in the given unit.
func (l layerSet) p50(st map[string]*spanStats, metricName, spanName, unit string, scale time.Duration) {
	s := st[spanName]
	if s == nil {
		l.set(metricName, 0, unit, 0)
		return
	}
	l.set(metricName, median(s.dur)/float64(scale), unit, len(s.dur))
}

// sum reads the total duration of every span of spanName, in ms.
func (l layerSet) sum(st map[string]*spanStats, metricName, spanName string) {
	total, n := 0.0, 0
	if s := st[spanName]; s != nil {
		for _, d := range s.dur {
			total += d
		}
		n = len(s.dur)
	}
	l.set(metricName, total/1e6, "ms", n)
}

// runtimeLayers reports the benchmark process's Go runtime totals.
func runtimeLayers(l layerSet) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.set("go.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "ms", int(ms.NumGC))
	l.set("go.alloc_mb", float64(ms.TotalAlloc)/(1<<20), "MB", 1)
}

// eigLayers times the truncated and full SVD on endpoint operators.
type eigProbe struct {
	op    eig.Op
	dense *matrix.Dense
	rank  int
}

func eigLayers(l layerSet, tr *tracer, probes []eigProbe) {
	var sweeps []float64
	ok := 0
	for _, p := range probes {
		var n int
		var err error
		tr.do("eig.TruncatedSVDOpts", 0, "", func() {
			_, err = eig.TruncatedSVDOpts(p.op, p.rank, eig.Options{Sweeps: &n})
		})
		if err == nil {
			ok++
		}
		sweeps = append(sweeps, float64(n))
		tr.do("eig.SVD", 0, "", func() { _, _ = eig.SVD(p.dense) })
	}
	st := layerStats(tr.snapshot())
	l.p50(st, "eig.truncated_ms", "eig.TruncatedSVDOpts", "ms", time.Millisecond)
	l.p50(st, "eig.full_svd_ms", "eig.SVD", "ms", time.Millisecond)
	l.set("eig.truncated_sweeps", median(sweeps), "count", len(sweeps))
	l.set("eig.truncated_ok_frac", float64(ok)/float64(max(1, len(probes))), "frac", len(probes))
}

// gramSparse times the interval endpoint Gram of a sparse matrix and
// returns its computed flop and byte counts: four endpoint products,
// nnz(row)² multiply-adds each per row; operands read once, the n×n
// interval result written once.
func gramSparse(tr *tracer, a *sparse.ICSR) (flops, bytes float64) {
	tr.do("kernels.GramEndpoints", 0, "sparse", func() { _ = sparse.GramEndpoints(a) })
	for i := 0; i < a.Rows; i++ {
		k := float64(a.RowPtr[i+1] - a.RowPtr[i])
		flops += 4 * 2 * k * k
	}
	bytes = float64(a.NNZ())*(8+8+8) + float64(a.Rows+1)*8 + float64(a.Cols*a.Cols)*16
	return flops, bytes
}

// gramDense is gramSparse for a dense interval matrix.
func gramDense(tr *tracer, m *imatrix.IMatrix) (flops, bytes float64) {
	tr.do("kernels.GramEndpoints", 0, "dense", func() { _ = imatrix.GramEndpoints(m) })
	r, c := float64(m.Rows()), float64(m.Cols())
	return 4 * 2 * r * c * c, r*c*16 + c*c*16
}

// decomposeTimings reports the median of each public Timings phase.
func decomposeTimings(l layerSet, ts []core.Timings) {
	var pre, dec, align, solve, cons []float64
	for _, t := range ts {
		pre = append(pre, ms(t.Preprocess))
		dec = append(dec, ms(t.Decompose))
		align = append(align, ms(t.Align))
		solve = append(solve, ms(t.Solve))
		cons = append(cons, ms(t.Construct))
	}
	l.set("core.decompose.preprocess_ms", median(pre), "ms", len(ts))
	l.set("core.decompose.eig_ms", median(dec), "ms", len(ts))
	l.set("core.decompose.align_ms", median(align), "ms", len(ts))
	l.set("core.decompose.solve_ms", median(solve), "ms", len(ts))
	l.set("core.decompose.construct_ms", median(cons), "ms", len(ts))
}

// overheadMs is the traced minus the untraced median of one
// end-to-end latency, from a run that traced only part of its
// operations.
func overheadMs(traced, untraced []float64) float64 {
	return median(traced) - median(untraced)
}

// layers measures the per-layer metrics of a serve workload after its
// traced window: the offline replay already ran under spans (see
// offlineChains); this adds handler-only calls on the recorded request
// bodies, the store replay and recovery, and the eig, update, kernel
// and recommend probes on the tenants' endpoint data.
func (r *serveRun) layers(o *outcome, w *windowResult, chains []chain, metricsText string) error {
	if chains == nil {
		return errors.New("no offline chains to trace")
	}
	tr := r.tr
	l := layerSet{}

	// Handler-only reads on a copy of the final data dir.
	hdir := filepath.Join(r.dir, "handler-copy")
	if err := copyDir(r.dataDir, hdir); err != nil {
		return err
	}
	svc, err := service.Open(service.Config{DataDir: hdir})
	if err != nil {
		return fmt.Errorf("open handler copy: %w", err)
	}
	h := svc.Handler()
	for k, op := range w.plan {
		if k >= probeReads {
			break
		}
		ti := r.tenants[op.tenant]
		var req *http.Request
		name := "service.handler.predict"
		if op.topn {
			name = "service.handler.topn"
			req = httptest.NewRequest(http.MethodGet, "/v1/topn?tenant="+url.QueryEscape(ti.name)+
				"&row="+strconv.Itoa(op.row)+"&n="+strconv.Itoa(r.p.TopNN), nil)
		} else {
			body, _ := json.Marshal(service.PredictRequest{Tenant: ti.name, Cells: op.cells})
			req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		tr.do(name, 0, "", func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			_ = svc.Close()
			return fmt.Errorf("handler %s answered %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	if err := svc.Close(); err != nil {
		return err
	}

	// recommend on the final predictors, same recorded reads.
	cells := 0
	for k, op := range w.plan {
		if k >= probeReads {
			break
		}
		pred := chains[op.tenant].pred
		if op.topn {
			tr.do("recommend.TopN", 0, "", func() { _, _ = pred.TopN(op.row, r.p.TopNN, map[int]bool{}) })
			continue
		}
		cells += len(op.cells)
		tr.do("recommend.PredictInterval", 0, "", func() {
			for _, c := range op.cells {
				_, _ = pred.PredictInterval(c[0], c[1])
			}
		})
	}

	// store: append and snapshot the acknowledged chain, then recover a
	// copy of the server's final data dir.
	appendBytes, err := r.storeReplay(tr, l)
	if err != nil {
		return err
	}
	rdir := filepath.Join(r.dir, "recover-copy")
	if err := copyDir(r.dataDir, rdir); err != nil {
		return err
	}
	st, err := store.Open(rdir, store.Options{})
	if err != nil {
		return fmt.Errorf("open recover copy: %w", err)
	}
	replayed := 0
	for _, ti := range r.tenants {
		var rec *store.Recovered
		tr.do("store.Recover", 0, ti.name, func() { rec, err = st.Recover(ti.name) })
		if err != nil {
			_ = st.Close()
			return fmt.Errorf("recover %s: %w", ti.name, err)
		}
		replayed += rec.Replayed
	}
	if err := st.Close(); err != nil {
		return err
	}
	l.set("store.records_replayed", float64(replayed), "count", len(r.tenants))

	// eig, update and kernels on every tenant's base endpoints.
	var probes []eigProbe
	var flops, gbytes float64
	var cellPatch []float64
	for t, ti := range r.tenants {
		for _, a := range []*sparse.CSR{ti.base.LoCSR(), ti.base.HiCSR()} {
			probes = append(probes, eigProbe{op: sparse.NewOperator(a), dense: a.ToDense(), rank: r.p.Rank})
		}
		f, b := gramSparse(tr, ti.base)
		flops, gbytes = flops+f, gbytes+b
		us, err := cellPatchReplay(tr, ti.base, r.jobs[t], r.p.Rank)
		if err != nil {
			return err
		}
		cellPatch = append(cellPatch, us...)
	}
	eigLayers(l, tr, probes)

	// Span-derived metrics.
	stats := layerStats(tr.snapshot())
	l.p50(stats, "service.predict_handler_us", "service.handler.predict", "us", time.Microsecond)
	l.p50(stats, "service.topn_handler_us", "service.handler.topn", "us", time.Microsecond)
	rtt := 0.0
	if s := stats["client.predict"]; s != nil {
		rtt = median(s.dur) / 1e3
	}
	l.set("service.read_transport_us", rtt-l["service.predict_handler_us"].Value, "us", l["service.predict_handler_us"].Samples)
	l.p50(stats, "dataset.parse_base_ms", "dataset.ReadIntervalCOO", "ms", time.Millisecond)
	l.p50(stats, "core.decompose_ms", "core.DecomposeSparse", "ms", time.Millisecond)
	l.p50(stats, "recommend.build_us", "recommend.FromSparseDecomposition", "us", time.Microsecond)
	l.p50(stats, "recommend.topn_us", "recommend.TopN", "us", time.Microsecond)
	if s := stats["recommend.PredictInterval"]; s != nil && cells > 0 {
		total := 0.0
		for _, d := range s.dur {
			total += d
		}
		l.set("recommend.predict_cell_ns", total/float64(cells), "ns", cells)
	}
	l.p50(stats, "store.save_snapshot_ms", "store.SaveSnapshot", "ms", time.Millisecond)
	l.p50(stats, "store.recover_ms", "store.Recover", "ms", time.Millisecond)
	l.sum(stats, "kernels.gram_ms", "kernels.GramEndpoints")
	l.set("kernels.gram_flops", flops, "flop_computed", len(r.tenants))
	l.set("kernels.gram_bytes", gbytes, "B_computed", len(r.tenants))

	var timings []core.Timings
	for _, steps := range r.steps {
		timings = append(timings, steps[0].next.Timings)
	}
	decomposeTimings(l, timings)
	l.set("service.rejected", parseCounter(metricsText, "ivmfd_jobs_rejected_total"), "count", 1)
	l.set("service.client_retries", float64(w.retries), "count", 1)
	l.set("sched.batches", parseCounter(metricsText, "ivmfd_batches_scheduled_total"), "count", 1)
	runtimeLayers(l)
	l.set("trace.overhead_ms", r.traceOverhead(w), "ms", len(w.reads))
	if updatesPerTenant(r.p, r.cfg.seconds) > 0 {
		r.updateLayers(l, w, stats, metricsText)
		l.set("update.cellpatch_us", median(cellPatch), "us", len(cellPatch))
		l.set("store.append_bytes", median(appendBytes), "B", len(appendBytes))
	}
	for k, v := range l {
		o.metrics[k] = v
	}
	return nil
}

// traceOverhead compares the window's traced and untraced predicts.
func (r *serveRun) traceOverhead(w *windowResult) float64 {
	var on, off []float64
	for k, res := range w.reads {
		if res.err != "" || w.plan[k].topn {
			continue
		}
		if res.traced {
			on = append(on, res.ms)
		} else {
			off = append(off, res.ms)
		}
	}
	return overheadMs(on, off)
}

// updateLayers measures the layers only the update stream uses.
func (r *serveRun) updateLayers(l layerSet, w *windowResult, stats map[string]*spanStats, metricsText string) {
	l.p50(stats, "dataset.parse_delta_us", "dataset.ParseDeltaCOO", "us", time.Microsecond)
	l.p50(stats, "store.append_us", "store.AppendDelta", "us", time.Microsecond)

	// core.Update, split by the escalation Health() shows.
	var all, additive, refresh, redecomp []float64
	for _, steps := range r.steps {
		for _, s := range steps {
			if s.prev == nil {
				continue
			}
			d := ms(s.took)
			all = append(all, d)
			h0, h1 := s.prev.Health(), s.next.Health()
			switch {
			case h1.Redecomposes > h0.Redecomposes:
				redecomp = append(redecomp, d)
			case h1.Refreshes > h0.Refreshes:
				refresh = append(refresh, d)
			default:
				additive = append(additive, d)
			}
		}
	}
	l.set("core.update_ms", median(all), "ms", len(all))
	l.set("core.update.additive_ms", median(additive), "ms", len(additive))
	l.set("core.update.refresh_ms", median(refresh), "ms", len(refresh))
	l.set("core.update.redecompose_ms", median(redecomp), "ms", len(redecomp))
	l.set("core.update.refresh_frac", float64(len(refresh))/float64(max(1, len(all))), "1/update", len(all))
	l.set("core.update.redecompose_frac", float64(len(redecomp))/float64(max(1, len(all))), "1/update", len(all))

	// service and sched, from the window's job infos and /metrics.
	var server, overheadMs []float64
	for _, ts := range w.acks {
		for _, a := range ts {
			if a.err == "" {
				server = append(server, a.serverMs)
				overheadMs = append(overheadMs, a.ms-a.serverMs)
			}
		}
	}
	l.set("service.job_server_ms", median(server), "ms", len(server))
	l.set("service.ack_overhead_ms", median(overheadMs), "ms", len(overheadMs))
	l.set("service.queue_wait_ms", median(server)-l["core.update_ms"].Value, "ms", len(server))
	updDone := parseCounterLabel(metricsText, "ivmfd_jobs_completed_total", `kind="update"`)
	coalesced := parseCounter(metricsText, "ivmfd_jobs_coalesced_total")
	jpu := 0.0
	if updDone > coalesced {
		jpu = updDone / (updDone - coalesced)
	}
	l.set("sched.jobs_per_unit", jpu, "jobs/unit", int(updDone))
}

// storeReplay writes every tenant's acknowledged chain to a fresh
// store the way the service persists it: a snapshot of the
// decomposition, one fsynced WAL record per published version, and a
// compaction snapshot every service.DefaultCompactEvery records.
func (r *serveRun) storeReplay(tr *tracer, l layerSet) (appendBytes []float64, err error) {
	dir := filepath.Join(r.dir, "store-replay")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	var snapBytes []float64
	save := func(tenant string, d *core.Decomposition, v uint64) error {
		ps, err := d.ExportState()
		if err != nil {
			return err
		}
		meta := store.SnapshotMeta{Seq: v, MinRating: minRating, MaxRating: maxRating}
		if b, err := store.EncodeSnapshot(ps, meta); err == nil {
			snapBytes = append(snapBytes, float64(len(b)))
		}
		tr.do("store.SaveSnapshot", 0, tenant, func() { err = st.SaveSnapshot(tenant, ps, meta) })
		return err
	}
	for t, ti := range r.tenants {
		groups := versionGroups(r.jobs[t])
		for _, s := range r.steps[t] {
			if s.prev == nil {
				if err := save(ti.name, s.next, s.v); err != nil {
					_ = st.Close()
					return nil, err
				}
				continue
			}
			rec := &store.WALRecord{Seq: s.v, JobID: s.v, Delta: core.Delta{Patch: mergeLastWins(groups[s.v-2])}}
			if b, err := store.EncodeWALRecord(rec); err == nil {
				appendBytes = append(appendBytes, float64(len(b)))
			}
			var n int
			tr.do("store.AppendDelta", 0, ti.name, func() { n, err = st.AppendDelta(ti.name, rec) })
			if err != nil {
				_ = st.Close()
				return nil, err
			}
			if n >= service.DefaultCompactEvery {
				if err := save(ti.name, s.next, s.v); err != nil {
					_ = st.Close()
					return nil, err
				}
			}
		}
	}
	l.set("store.snapshot_bytes", median(snapBytes), "B", len(snapBytes))
	return appendBytes, st.Close()
}

// cellPatchReplay applies each acknowledged update's lower-endpoint
// cell deltas to a rank-truncated SVD of the tenant's base lower
// endpoint with update.CellPatch, returning each call's time in µs.
func cellPatchReplay(tr *tracer, base *sparse.ICSR, jobs []ackedUpdate, rank int) ([]float64, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	f, err := eig.SVD(base.LoCSR().ToDense())
	if err != nil {
		return nil, err
	}
	f = f.Truncate(rank)
	cur := map[sparse.Cell]float64{}
	base.ForEachRow(func(i int, cols []int, lo, _ []float64) {
		for p, j := range cols {
			cur[sparse.Cell{Row: i, Col: j}] = lo[p]
		}
	})
	var out []float64
	for _, j := range jobs {
		patch := make([]sparse.Triplet, 0, len(j.Patch))
		for _, t := range j.Patch {
			c := sparse.Cell{Row: t.Row, Col: t.Col}
			patch = append(patch, sparse.Triplet{Row: t.Row, Col: t.Col, Val: t.Lo - cur[c]})
			cur[c] = t.Lo
		}
		t0 := time.Now()
		var next *eig.SVDResult
		tr.do("update.CellPatch", 0, "", func() { next, _, err = update.CellPatch(f, patch, rank) })
		out = append(out, us(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("CellPatch: %w", err)
		}
		f = next
	}
	return out, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// offlineLayers measures the per-layer metrics of offline-batch: the
// traced iterations' decompose and train spans, the eig and kernel
// probes on the faces and CF endpoints, and the runtime totals. The
// serving layers are idle on this workload.
func offlineLayers(p *offlineParams, in *offlineInputs, its []offlineIter, tr *tracer, o *outcome) error {
	l := layerSet{}
	var ts []core.Timings
	for _, it := range its {
		ts = append(ts, it.timings...)
	}
	decomposeTimings(l, ts)
	stats := layerStats(tr.snapshot())
	var dec []float64
	for _, n := range []string{"core.Decompose", "core.DecomposeSparse"} {
		if s := stats[n]; s != nil {
			dec = append(dec, s.dur...)
		}
	}
	l.set("core.decompose_ms", median(dec)/1e6, "ms", len(dec))
	if s := stats["ipmf.TrainAIPMFCSR"]; s != nil {
		l.set("ipmf.epoch_ms", median(s.dur)/1e6/aipmfEpochs, "ms", len(s.dur))
	}

	probes := []eigProbe{
		{op: eig.NewDenseOp(in.faces.Lo), dense: in.faces.Lo, rank: p.DenseRank},
		{op: eig.NewDenseOp(in.faces.Hi), dense: in.faces.Hi, rank: p.DenseRank},
	}
	for _, a := range []*sparse.CSR{in.cf.LoCSR(), in.cf.HiCSR()} {
		probes = append(probes, eigProbe{op: sparse.NewOperator(a), dense: a.ToDense(), rank: p.CFRank})
	}
	eigLayers(l, tr, probes)

	f1, b1 := gramDense(tr, in.faces)
	f2, b2 := gramSparse(tr, in.cf)
	l.sum(layerStats(tr.snapshot()), "kernels.gram_ms", "kernels.GramEndpoints")
	l.set("kernels.gram_flops", f1+f2, "flop_computed", 2)
	l.set("kernels.gram_bytes", b1+b2, "B_computed", 2)

	var on, off []float64
	for _, it := range its {
		if it.err != nil {
			continue
		}
		if it.traced {
			on = append(on, it.sparseMs)
		} else {
			off = append(off, it.sparseMs)
		}
	}
	l.set("trace.overhead_ms", overheadMs(on, off), "ms", len(on)+len(off))
	runtimeLayers(l)
	for k, v := range l {
		o.metrics[k] = v
	}
	return nil
}
