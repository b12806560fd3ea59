package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/recommend"
	"repro/internal/service"
	"repro/internal/sparse"
)

// tenantInput is one tenant's generated data: the decompose payload and
// the held-out cells it replays as update jobs.
type tenantInput struct {
	name       string
	rows, cols int
	base       *sparse.ICSR
	coo        string
	updates    [][]sparse.ITriplet // cells of each update job, (row, col) order
	texts      []string            // the update jobs' delta COO wire texts
}

// updatesPerTenant is how many update jobs one tenant sends in a run:
// one per interval over the measured window.
func updatesPerTenant(p *serveParams, seconds int) int {
	if p.UpdateIntervalMs <= 0 {
		return 0
	}
	return int(math.Ceil(float64(seconds) * 1000 / p.UpdateIntervalMs))
}

// makeTenants generates every tenant's inputs from the seed: a
// MovieLensLike CF interval matrix, split into the decomposed base and
// the held-out stream. serve-read and serve-stream share the base.
func makeTenants(seed int64, p *serveParams, seconds int) ([]*tenantInput, error) {
	nUpd := updatesPerTenant(p, seconds)
	out := make([]*tenantInput, p.Tenants)
	for t := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(t)))
		data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(p.Scale), rng)
		if err != nil {
			return nil, err
		}
		m := data.CFIntervalsCSR()
		base, deltas, err := dataset.StreamSplit(m, p.HoldOut, max(1, nUpd), rng)
		if err != nil {
			return nil, err
		}
		baseCSR, err := sparse.FromICOO(m.Rows, m.Cols, base)
		if err != nil {
			return nil, err
		}
		// The offline chain works from the payloads as the server parses
		// them, not from the generator's values.
		var sb strings.Builder
		if err := dataset.WriteIntervalCOO(&sb, baseCSR); err != nil {
			return nil, err
		}
		ti := &tenantInput{name: fmt.Sprintf("t%d", t), rows: m.Rows, cols: m.Cols, coo: sb.String()}
		if ti.base, err = dataset.ReadIntervalCOO(strings.NewReader(ti.coo)); err != nil {
			return nil, err
		}
		for k := 0; k < nUpd; k++ {
			var db strings.Builder
			if err := dataset.WriteDeltaCOO(&db, m.Rows, m.Cols, deltas[k]); err != nil {
				return nil, err
			}
			cells, err := parseDelta(db.String())
			if err != nil {
				return nil, err
			}
			ti.updates = append(ti.updates, cells)
			ti.texts = append(ti.texts, db.String())
		}
		out[t] = ti
	}
	return out, nil
}

// parseDelta parses an update's wire text and orders its cells the way
// the service's admission does.
func parseDelta(text string) ([]sparse.ITriplet, error) {
	_, _, b, err := dataset.ParseDeltaCOO(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	sortCells(b.Patch)
	return b.Patch, nil
}

func sortCells(ts []sparse.ITriplet) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].Row != ts[b].Row {
			return ts[a].Row < ts[b].Row
		}
		return ts[a].Col < ts[b].Col
	})
}

// readOp is one planned read: a 16-cell predict or a top-n.
type readOp struct {
	tenant int
	topn   bool
	row    int
	cells  [][2]int
}

// readPlan draws the read mix from the seed: tenants by zipf, every
// TopNEvery-th read a top-n, the rest predicts of uniform random cells.
// The predict/topn counts are fixed by the rate and the window, so the
// tail percentile each reports does not change between seeds.
func readPlan(seed int64, p *serveParams, n int, tenants []*tenantInput) []readOp {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	z := rand.NewZipf(rng, p.ZipfS, 1, uint64(len(tenants)-1))
	ops := make([]readOp, n)
	for k := range ops {
		t := int(z.Uint64())
		ti := tenants[t]
		op := readOp{tenant: t, topn: p.TopNEvery > 0 && k%p.TopNEvery == p.TopNEvery-1}
		if op.topn {
			op.row = rng.Intn(ti.rows)
		} else {
			op.cells = make([][2]int, p.PredictCells)
			for i := range op.cells {
				op.cells[i] = [2]int{rng.Intn(ti.rows), rng.Intn(ti.cols)}
			}
		}
		ops[k] = op
	}
	return ops
}

// ivmfd is one running server process.
type ivmfd struct {
	cmd  *exec.Cmd
	done chan struct{}
	once sync.Once
}

func launch(bin, addr, dataDir string, logw io.Writer) (*ivmfd, error) {
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout = logw
	cmd.Stderr = logw
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ivmfd: %w", err)
	}
	p := &ivmfd{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a SIGKILLed server exits non-zero by design
		close(p.done)
	}()
	return p, nil
}

// kill sends SIGKILL and waits until the process has exited.
func (p *ivmfd) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // fails only if it already exited; done closes either way
		<-p.done
	})
}

func (p *ivmfd) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// freeAddr picks a loopback port the server can bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// newTransport is the harness's one shared HTTP transport: at most
// nproc keep-alive connections, kept idle between requests, so the
// measured window never dials. dials counts every connection opened.
func newTransport(dials *atomic.Int64) *http.Transport {
	n := runtime.NumCPU()
	d := &net.Dialer{Timeout: 2 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     n,
		MaxIdleConns:        n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}
}

// serveRun is one serve-read or serve-stream run.
type serveRun struct {
	cfg     config
	p       *serveParams
	dir     string
	addr    string
	logw    *os.File
	tr      *tracer
	dials   atomic.Int64
	hc      *http.Client
	client  *service.Client
	srv     *ivmfd
	dataDir string
	tenants []*tenantInput
	// jobs and steps are each tenant's acknowledged updates and, on a
	// traced run, its offline replay steps.
	jobs  [][]ackedUpdate
	steps [][]chainStep
	// setupPhases holds each setup's phase durations in ms: input
	// generation, server launch, and the initial decomposes.
	setupPhases map[string][]float64
}

func runServe(cfg config, p *serveParams, dir string, tr *tracer) (*outcome, error) {
	if p == nil {
		return nil, fmt.Errorf("serve workload without serve parameters")
	}
	if cfg.ivmfd == "" {
		return nil, fmt.Errorf("serve workloads need --ivmfd")
	}
	// The system under test is the ivmfd process; a lazier collector in
	// the load generator keeps its GC cycles off the shared cores.
	debug.SetGCPercent(400)
	logw, err := os.Create(filepath.Join(dir, "ivmfd.log"))
	if err != nil {
		return nil, err
	}
	defer logw.Close()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	r := &serveRun{cfg: cfg, p: p, dir: dir, addr: addr, logw: logw, tr: tr, setupPhases: map[string][]float64{}}
	r.hc = &http.Client{Transport: newTransport(&r.dials), Timeout: 60 * time.Second}
	r.client = &service.Client{Base: "http://" + addr, HTTPClient: r.hc,
		Retry: &service.RetryPolicy{MaxAttempts: 3, Seed: cfg.seed}}
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
		r.hc.CloseIdleConnections()
	}()
	return r.run()
}

func (r *serveRun) run() (*outcome, error) {
	p := r.p
	o := &outcome{metrics: map[string]metric{}, harness: map[string]any{}, params: p}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.cfg.seconds)*time.Second+150*time.Second)
	defer cancel()

	// Set up several times and report the median; the last setup's
	// server is the one measured.
	n := setups
	if r.tr != nil {
		n = 1
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		if r.srv != nil {
			r.srv.kill()
			if err := os.RemoveAll(r.dataDir); err != nil {
				return nil, err
			}
		}
		d, err := r.setup(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	o.metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: len(setupS)}
	o.harness["setup_s_each"] = setupS
	phases := map[string]float64{}
	for k, v := range r.setupPhases {
		phases[k] = median(v)
	}
	o.harness["setup_phase_p50_ms"] = phases

	if err := r.warm(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	w, err := r.window(ctx)
	if err != nil {
		return nil, err
	}
	if err := r.report(o, w); err != nil {
		return nil, err
	}

	if r.srv.exited() {
		return nil, fmt.Errorf("ivmfd exited during the window (see ivmfd.log)")
	}
	rss, err := vmHWMMB(r.srv.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("read ivmfd VmHWM: %w", err)
	}
	o.metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB", Note: "VmHWM of ivmfd"}
	metricsText, err := r.client.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetch /metrics: %w", err)
	}

	// Correctness: the offline chain of every tenant, compared bitwise
	// with what the server serves, before and after each SIGKILL
	// restart.
	chains, err := r.offlineChains(w)
	if err != nil {
		o.checks.add("offline chain replays", false, "%v", err)
	} else {
		o.checks.add("offline chain replays", true, "%d tenants", len(chains))
	}
	r.verify(ctx, o, chains, "before restart")
	// Every restart is timed; the served state is checked after the
	// first and the last, which is where a lost or replayed-twice record
	// would show.
	var recS []float64
	for i := 0; i < restarts; i++ {
		d, err := r.restart(ctx)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		recS = append(recS, d.Seconds())
		if i == 0 || i == restarts-1 {
			r.verify(ctx, o, chains, fmt.Sprintf("after SIGKILL restart %d", i+1))
		}
	}
	o.metrics["recover_s"] = metric{Value: median(recS), Unit: "s", Samples: len(recS)}

	if r.tr != nil {
		if err := r.layers(o, w, chains, metricsText); err != nil {
			return nil, fmt.Errorf("per-layer replay: %w", err)
		}
	}
	return o, nil
}

// setup launches a fresh server on a fresh data dir, generates the
// inputs and publishes every tenant's initial decomposition. Its
// duration is one setup_s sample.
func (r *serveRun) setup(ctx context.Context, i int) (time.Duration, error) {
	r.dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
	t0 := time.Now()
	tenants, err := makeTenants(r.cfg.seed, r.p, r.cfg.seconds)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	srv, err := launch(r.cfg.ivmfd, r.addr, r.dataDir, r.logw)
	if err != nil {
		return 0, err
	}
	r.srv, r.tenants = srv, tenants
	if err := r.waitReady(ctx, 0); err != nil {
		return 0, err
	}
	t2 := time.Now()
	defer func() {
		r.setupPhases["inputs"] = append(r.setupPhases["inputs"], ms(t1.Sub(t0)))
		r.setupPhases["launch"] = append(r.setupPhases["launch"], ms(t2.Sub(t1)))
		r.setupPhases["decompose"] = append(r.setupPhases["decompose"], since(t2))
	}()
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for t, ti := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := service.Request{Tenant: ti.name, Kind: "decompose", Method: "ISVD4", Rank: r.p.Rank,
				Target: "b", Min: minRating, Max: maxRating, COO: ti.coo}
			info, err := r.client.SubmitIdem(ctx, req, ti.name+"-decompose")
			if err == nil {
				info, err = r.client.WaitJob(ctx, info.ID, 2*time.Millisecond)
			}
			if err == nil && info.State != service.JobDone {
				err = fmt.Errorf("decompose %s: %s %s", ti.name, info.State, info.Error)
			}
			errs[t] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// waitReady polls /readyz until it passes with at least want tenants
// reporting model health (0: only the server).
func (r *serveRun) waitReady(ctx context.Context, want int) error {
	for {
		if r.srv.exited() {
			return fmt.Errorf("ivmfd exited while starting (see ivmfd.log)")
		}
		if n, ok := r.ready(ctx); ok && n >= want {
			return nil
		}
		// nanosleep, not a runtime timer: recovery takes a few ms and a
		// timer would round each poll up to a whole millisecond.
		if !sleepUntil(ctx, time.Now().Add(100*time.Microsecond)) {
			return ctx.Err()
		}
	}
}

func (r *serveRun) ready(ctx context.Context) (int, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.client.Base+"/readyz", nil)
	if err != nil {
		return 0, false
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var body struct {
		Status string                     `json:"status"`
		Health map[string]json.RawMessage `json:"health"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return 0, false
	}
	return len(body.Health), body.Status == "ready"
}

// warm opens the transport's connections and touches every tenant's
// snapshot once, so the window neither dials nor pays first-use costs.
func (r *serveRun) warm(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ti := range r.tenants {
				if _, err := r.client.Predict(ctx, ti.name, [][2]int{{0, 0}}); err != nil {
					errs[i] = err
					return
				}
				if _, err := r.client.TopN(ctx, ti.name, 0, r.p.TopNN); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readRes and ackRes are one operation's outcome in the window.
type readRes struct {
	ok     bool
	due    time.Time
	ms     float64
	bad    int // served values that failed the range check
	err    string
	traced bool
}

type ackRes struct {
	ok       bool
	due      time.Time
	ms       float64
	serverMs float64
	id       uint64
	version  uint64
	err      string
}

// windowResult is everything the measured window produced.
type windowResult struct {
	plan        []readOp
	reads       []readRes
	acks        [][]ackRes // per tenant, per update
	lags        []float64  // generator lateness, ms
	dials       int64
	retries     int64
	elapsed     time.Duration
	steal       float64 // share of CPU ticks the host stole during the window
	serverCPUMs float64 // CPU time ivmfd ran during the window
}

// window runs the measured open-loop traffic for --seconds: the read
// mix and, on serve-stream, every tenant's update stream.
func (r *serveRun) window(ctx context.Context) (*windowResult, error) {
	p := r.p
	n := int(p.ReadRatePerS * float64(r.cfg.seconds))
	w := &windowResult{plan: readPlan(r.cfg.seed, p, n, r.tenants), acks: make([][]ackRes, len(r.tenants))}
	w.reads = make([]readRes, n)
	start := time.Now().Add(20 * time.Millisecond)
	dials0, retries0 := r.dials.Load(), r.client.Retries()
	steal0, ticks0 := cpuTicks()
	cpu0, err := procCPUMs(r.srv.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("read ivmfd CPU time: %w", err)
	}
	// A traced run traces the operations due in even seconds of the
	// window and leaves the rest untraced, so the two halves give the
	// tracing overhead under the same load.
	opTracer := func(due time.Time) *tracer {
		if int(due.Sub(start)/time.Second)%2 == 0 {
			return r.tr
		}
		return nil
	}

	var lagMu sync.Mutex
	addLags := func(l []time.Duration) {
		lagMu.Lock()
		defer lagMu.Unlock()
		for _, d := range l {
			w.lags = append(w.lags, ms(d))
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := openLoop{start: start, period: time.Duration(float64(time.Second) / p.ReadRatePerS), n: n, maxInFlight: 256}
		addLags(g.run(ctx, func(k int, due time.Time) { w.reads[k] = r.read(ctx, opTracer(due), w.plan[k], due) }))
	}()
	nUpd := updatesPerTenant(p, r.cfg.seconds)
	if nUpd > 0 {
		period := time.Duration(p.UpdateIntervalMs * float64(time.Millisecond))
		for t, ti := range r.tenants {
			w.acks[t] = make([]ackRes, nUpd)
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Tenants are staggered across one interval.
				g := openLoop{start: start.Add(period * time.Duration(t) / time.Duration(len(r.tenants))),
					period: period, n: nUpd, maxInFlight: 64}
				addLags(g.run(ctx, func(k int, due time.Time) { w.acks[t][k] = r.update(ctx, opTracer(due), ti, k, due) }))
			}()
		}
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.steal = stealFrac(steal0, ticks0)
	cpu1, err := procCPUMs(r.srv.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("read ivmfd CPU time: %w", err)
	}
	w.serverCPUMs = cpu1 - cpu0
	w.dials = r.dials.Load() - dials0
	w.retries = r.client.Retries() - retries0
	return w, ctx.Err()
}

// read performs one planned read and checks every served value.
func (r *serveRun) read(ctx context.Context, tr *tracer, op readOp, due time.Time) readRes {
	ti := r.tenants[op.tenant]
	res := readRes{due: due, traced: tr != nil}
	if op.topn {
		_, end := tr.begin("client.topn", 0, "")
		resp, err := r.client.TopN(ctx, ti.name, op.row, r.p.TopNN)
		end()
		res.ms = since(due)
		if err != nil {
			res.err = err.Error()
			return res
		}
		res.bad = checkTopN(resp.Items, r.p.TopNN, ti.cols)
	} else {
		_, end := tr.begin("client.predict", 0, "")
		resp, err := r.client.Predict(ctx, ti.name, op.cells)
		end()
		res.ms = since(due)
		if err != nil {
			res.err = err.Error()
			return res
		}
		res.bad = r.checkPredictions(resp.Predictions, op.cells)
	}
	res.ok = res.bad == 0 && res.ms <= r.p.ReadLimitMs
	return res
}

// checkPredictions counts served values that are not finite, not in
// [min, max], misordered, or not the cell asked for.
func (r *serveRun) checkPredictions(ps []service.Prediction, cells [][2]int) int {
	if len(ps) != len(cells) {
		return len(cells)
	}
	bad := 0
	for i, pr := range ps {
		if !inRange(pr.Lo) || !inRange(pr.Hi) || !inRange(pr.Mid) || pr.Lo > pr.Hi ||
			pr.Row != cells[i][0] || pr.Col != cells[i][1] {
			bad++
		}
	}
	return bad
}

func inRange(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= minRating && v <= maxRating
}

// checkTopN counts top-n answers that are short, out of range or
// repeated.
func checkTopN(items []int, n, cols int) int {
	bad := 0
	if len(items) != min(n, cols) {
		bad++
	}
	seen := make(map[int]bool, len(items))
	for _, j := range items {
		if j < 0 || j >= cols || seen[j] {
			bad++
		}
		seen[j] = true
	}
	return bad
}

// update submits tenant ti's k-th update job and waits until the client
// sees it done; the ack latency runs from the job's due time.
func (r *serveRun) update(ctx context.Context, tr *tracer, ti *tenantInput, k int, due time.Time) ackRes {
	res := ackRes{due: due}
	req := service.Request{Tenant: ti.name, Kind: "update", Delta: ti.texts[k]}
	key := fmt.Sprintf("%s-u%d", ti.name, k)
	_, end := tr.begin("client.update", 0, key)
	info, err := r.client.SubmitIdem(ctx, req, key)
	if err == nil {
		info, err = r.client.WaitJob(ctx, info.ID, 2*time.Millisecond)
	}
	end()
	res.ms = since(due)
	if err != nil {
		res.err = err.Error()
		return res
	}
	res.id, res.version, res.serverMs = info.ID, info.Version, info.LatencyMs
	if info.State != service.JobDone {
		res.err = fmt.Sprintf("job %d %s: %s", info.ID, info.State, info.Error)
		return res
	}
	res.ok = res.ms <= r.p.UpdateLimitMs
	return res
}

// report turns the window into the run's end-to-end metrics. A window
// the harness itself disturbed — the generator fell behind its bound,
// or a request had to dial — is invalid and reported as an error.
func (r *serveRun) report(o *outcome, w *windowResult) error {
	p := r.p
	var firstErr string
	acked, ackFail := 0, 0
	var ackMs []float64
	var busy [][2]time.Time // when each update was in flight, due to ack
	for _, ts := range w.acks {
		for _, a := range ts {
			o.attempted++
			if !a.ok {
				o.failed++
			}
			busy = append(busy, [2]time.Time{a.due, a.due.Add(time.Duration(a.ms * float64(time.Millisecond)))})
			if a.err != "" {
				ackFail++
				if firstErr == "" {
					firstErr = a.err
				}
				continue
			}
			acked++
			ackMs = append(ackMs, a.ms)
		}
	}
	duringUpdate := func(t time.Time) bool {
		for _, b := range busy {
			if !t.Before(b[0]) && t.Before(b[1]) {
				return true
			}
		}
		return false
	}

	var predMs, topnMs, underMs []float64
	readsOK, readsBad, readErrs := 0, 0, 0
	for k, res := range w.reads {
		o.attempted++
		if res.ok {
			readsOK++
		} else {
			o.failed++
		}
		readsBad += res.bad
		if res.err != "" {
			readErrs++
			if firstErr == "" {
				firstErr = res.err
			}
			continue
		}
		switch {
		case w.plan[k].topn:
			topnMs = append(topnMs, res.ms)
		default:
			predMs = append(predMs, res.ms)
			if duringUpdate(res.due) {
				underMs = append(underMs, res.ms)
			}
		}
	}
	addLatency(o, "predict", predMs)
	addLatency(o, "topn", topnMs)
	o.metrics["read_slo_frac"] = metric{Value: float64(readsOK) / float64(max(1, len(w.reads))), Unit: "frac",
		Samples: len(w.reads), Note: fmt.Sprintf("reads answered within %g ms", p.ReadLimitMs)}
	o.metrics["server_cpu_ms_per_s"] = metric{Value: w.serverCPUMs / w.elapsed.Seconds(), Unit: "ms/s",
		Samples: 1, Note: "ivmfd CPU time per second of the window"}

	if p.UpdateIntervalMs == 0 {
		o.metrics["read_cpu_ms"] = metric{Value: w.serverCPUMs / float64(max(1, len(w.reads))), Unit: "ms",
			Samples: len(w.reads), Note: "ivmfd CPU time in the window per read sent"}
	}
	if p.UpdateIntervalMs > 0 {
		addLatency(o, "update_ack", ackMs)
		// Reads sent while an update was in flight share the cores with
		// it: their latency is what writes cost the read path.
		addLatency(o, "predict_under_update", underMs)
		o.metrics["update_cpu_ms"] = metric{Value: w.serverCPUMs / float64(max(1, acked)), Unit: "ms", Samples: acked,
			Note: "ivmfd CPU time in the window per acknowledged update, the reads beside them included"}
	}
	o.checks.add("served values finite and in range", readsBad == 0, "%d bad values", readsBad)
	o.checks.add("no read or update errors", readErrs == 0 && ackFail == 0,
		"%d reads, %d read errors, %d updates acknowledged, %d update errors; first: %s",
		len(w.reads), readErrs, acked, ackFail, firstErr)
	o.metrics["ok_frac"] = metric{Value: float64(o.attempted-o.failed) / float64(max(1, o.attempted)), Unit: "frac", Samples: o.attempted}
	o.metrics["failed_frac"] = metric{Value: float64(o.failed) / float64(max(1, o.attempted)), Unit: "frac", Samples: o.attempted}

	lag := summarize(w.lags)
	lag99 := quantileSorted(w.lags, 990)
	o.harness["gen_lag_p99_ms"] = lag99
	o.harness["gen_lag_p50_ms"] = lag.P50
	o.harness["dials_in_window"] = w.dials
	o.harness["client_retries_in_window"] = w.retries
	o.harness["window_s"] = w.elapsed.Seconds()
	o.harness["cpu_steal_frac"] = w.steal
	o.harness["updates_acked"] = acked
	if lag99 > maxGenLagP99Ms {
		return fmt.Errorf("invalid run: generator lateness p99 %.3f ms exceeds %d ms", lag99, maxGenLagP99Ms)
	}
	if w.dials != 0 {
		return fmt.Errorf("invalid run: the harness dialed %d connections inside the window", w.dials)
	}
	return nil
}

// addLatency records name_p25_ms, name_p50_ms and name_tail_ms, the
// tail being the highest percentile with ten samples beyond it (see
// tailPerMille). The benchmark grades the p25: on a shared virtual
// machine, host contention slows a varying share of each run's
// operations, which moves the median from run to run far more than any
// code change worth catching, while the fastest quarter stays put.
func addLatency(o *outcome, name string, xs []float64) {
	s := summarize(xs)
	o.metrics[name+"_p25_ms"] = metric{Value: s.P25, Unit: "ms", Samples: s.N}
	o.metrics[name+"_p50_ms"] = metric{Value: s.P50, Unit: "ms", Samples: s.N}
	o.metrics[name+"_tail_ms"] = metric{Value: s.Tail, Unit: "ms", Samples: s.N, Note: s.TailName}
}

func quantileSorted(xs []float64, q int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantilePerMille(s, q)
}

// chain is a tenant's offline model at the final acknowledged version.
type chain struct {
	version uint64
	pred    *recommend.Predictor
}

// offlineChains replays every tenant offline: its decomposition, then
// the acknowledged updates grouped by published version. On a traced
// run the replay is the layer trace: each parse, decompose, update and
// predictor build is a span, and every step is kept for the store
// replay.
func (r *serveRun) offlineChains(w *windowResult) ([]chain, error) {
	out := make([]chain, len(r.tenants))
	r.jobs = make([][]ackedUpdate, len(r.tenants))
	r.steps = make([][]chainStep, len(r.tenants))
	for t, ti := range r.tenants {
		root, endRoot := r.tr.begin("replay", 0, ti.name)
		base := ti.base
		if r.tr != nil {
			var err error
			r.tr.do("dataset.ReadIntervalCOO", root, ti.name, func() {
				base, err = dataset.ReadIntervalCOO(strings.NewReader(ti.coo))
			})
			if err != nil {
				return nil, err
			}
		}
		var jobs []ackedUpdate
		for k, a := range w.acks[t] {
			if a.err != "" {
				continue
			}
			patch := ti.updates[k]
			if r.tr != nil {
				var err error
				r.tr.do("dataset.ParseDeltaCOO", root, ti.name, func() { patch, err = parseDelta(ti.texts[k]) })
				if err != nil {
					return nil, err
				}
			}
			jobs = append(jobs, ackedUpdate{ID: a.id, Version: a.version, Patch: patch})
		}
		var hook func(v uint64, prev, next *core.Decomposition, took time.Duration)
		if r.tr != nil {
			hook = func(v uint64, prev, next *core.Decomposition, took time.Duration) {
				name := "core.Update"
				if prev == nil {
					name = "core.DecomposeSparse"
				}
				r.tr.add(name, root, ti.name, took)
				r.steps[t] = append(r.steps[t], chainStep{v: v, prev: prev, next: next, took: took})
				r.tr.do("recommend.FromSparseDecomposition", root, ti.name, func() {
					_, _ = recommend.FromSparseDecomposition(next, minRating, maxRating)
				})
			}
		}
		d, last, err := offlineChain(base, r.p.Rank, jobs, hook)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ti.name, err)
		}
		pred, err := recommend.FromSparseDecomposition(d, minRating, maxRating)
		endRoot()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ti.name, err)
		}
		out[t] = chain{version: last, pred: pred}
		r.jobs[t] = jobs
	}
	return out, nil
}

// chainStep is one step of a traced offline replay.
type chainStep struct {
	v          uint64
	prev, next *core.Decomposition
	took       time.Duration
}

// verify asks the server for every cell of every tenant and compares
// each value bitwise with the offline chain, and the served version
// with the chain's.
func (r *serveRun) verify(ctx context.Context, o *outcome, chains []chain, when string) {
	mismatch, bad, wrongVersion, checked := 0, 0, 0, 0
	var firstErr error
	for t, ti := range r.tenants {
		var cells [][2]int
		for i := 0; i < ti.rows; i++ {
			for j := 0; j < ti.cols; j++ {
				cells = append(cells, [2]int{i, j})
			}
		}
		for lo := 0; lo < len(cells); lo += 4096 {
			part := cells[lo:min(lo+4096, len(cells))]
			resp, err := r.client.Predict(ctx, ti.name, part)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			bad += r.checkPredictions(resp.Predictions, part)
			if chains == nil {
				continue
			}
			if resp.Version != chains[t].version {
				wrongVersion++
			}
			for i, pr := range resp.Predictions {
				iv, err := chains[t].pred.PredictInterval(part[i][0], part[i][1])
				if err != nil || math.Float64bits(iv.Lo) != math.Float64bits(pr.Lo) ||
					math.Float64bits(iv.Hi) != math.Float64bits(pr.Hi) ||
					math.Float64bits(iv.Mid()) != math.Float64bits(pr.Mid) {
					mismatch++
				}
				checked++
			}
		}
	}
	o.checks.add("served predictions bitwise-equal the offline chain ("+when+")",
		chains != nil && firstErr == nil && mismatch == 0 && wrongVersion == 0 && checked > 0,
		"%d cells checked, %d mismatches, %d responses at the wrong version, error: %v", checked, mismatch, wrongVersion, firstErr)
	o.checks.add("served values finite and in range ("+when+")", bad == 0, "%d bad values", bad)
}

// restart SIGKILLs the server and starts it again on the same data dir,
// returning the time until /readyz passes with every tenant recovered.
func (r *serveRun) restart(ctx context.Context) (time.Duration, error) {
	r.srv.kill()
	r.hc.CloseIdleConnections()
	t0 := time.Now()
	srv, err := launch(r.cfg.ivmfd, r.addr, r.dataDir, r.logw)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	if err := r.waitReady(ctx, len(r.tenants)); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// parseCounter sums every sample of a Prometheus counter family.
func parseCounter(text, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// parseCounterLabel reads one labelled sample of a counter family.
func parseCounterLabel(text, name, labels string) float64 {
	prefix := name + "{" + labels + "}"
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, prefix+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
