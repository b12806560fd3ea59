package service

// Failure-injection tests over the executor's fault-isolation
// machinery: recover guards, deadlines, quarantine, the store circuit
// breaker, and drain under pressure. The governing invariant is the
// isolation contract — a poisoned tenant, a hung unit, or a dying disk
// may fail its own jobs, but every other tenant's served predictions
// stay bitwise equal to the offline chain of its acknowledged jobs, and
// the daemon itself never wedges or leaks.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/recommend"
	"repro/internal/store"
)

// TestPanicIsolation poisons one tenant's executor with panics while a
// healthy neighbor streams updates: the victim's jobs fail cleanly
// (ledger terminal, old snapshot keeps serving), the neighbor's served
// chain stays bitwise correct, and nothing leaks.
func TestPanicIsolation(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()

	decomposeTenant(t, s, "victim")
	mHealthy := decomposeTenant(t, s, "healthy")
	victimSnap := s.Snapshot("victim")

	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "victim", Mode: FailPanic, Count: 2})
	defer release()

	// Interleave: victim updates panic, healthy updates succeed.
	var healthyAcked []int
	for k := 1; k <= 2; k++ {
		vinfo := submitPatch(t, s, "victim", k)
		hinfo := submitPatch(t, s, "healthy", k)
		healthyAcked = append(healthyAcked, k)
		vdone := waitTerminal(t, s, vinfo.ID)
		if vdone.State != JobFailed || !strings.Contains(vdone.Error, "panicked") {
			t.Fatalf("victim job %d = %+v, want failed with panic", k, vdone)
		}
		waitJob(t, s, hinfo.ID)
	}

	// The victim's pre-poison snapshot is untouched.
	if got := s.Snapshot("victim"); got.Version != victimSnap.Version {
		t.Fatalf("victim snapshot moved to version %d under panics", got.Version)
	}
	// The healthy tenant's served state equals the offline chain of its
	// acknowledged updates, bitwise.
	assertServedEqualsChain(t, s, "healthy", mHealthy.Rows, mHealthy.Cols, healthyAcked)

	// The victim recovers: the failpoint is exhausted, so the next
	// update succeeds against the old snapshot.
	info := submitPatch(t, s, "victim", 9)
	waitJob(t, s, info.ID)
	if got := s.Snapshot("victim"); got.Version != victimSnap.Version+1 {
		t.Fatalf("victim did not resume publishing: version %d", got.Version)
	}
	if n := s.metrics.snapshotCounter(mResPanics, label("tenant", "victim")); n != 2 {
		t.Fatalf("panic counter = %v, want 2", n)
	}
	drain(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertServedEqualsChain pins a tenant's served predictions, bitwise
// over every cell, to the offline DecomposeSparse+Update chain of
// exactly the acked patches.
func assertServedEqualsChain(t *testing.T, s *Service, tenant string, rows, cols int, ackedPatches []int) {
	t.Helper()
	var probes [][2]int
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			probes = append(probes, [2]int{i, j})
		}
	}
	// Replay the exact recipe decomposeTenant/submitPatch request:
	// rank-3 TargetB decompose, then Refresh-never updates.
	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	d, err := core.DecomposeSparse(m, core.ISVD4,
		core.Options{Rank: 3, Target: core.TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ackedPatches {
		d, err = d.Update(core.Delta{Patch: persistPatch(k)},
			core.Options{Refresh: core.RefreshNever})
		if err != nil {
			t.Fatal(err)
		}
	}
	pred, err := recommend.FromSparseDecomposition(d, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]interval.Interval, len(probes))
	for ci, c := range probes {
		if want[ci], err = pred.PredictInterval(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot(tenant)
	if snap == nil {
		t.Fatalf("tenant %q has no snapshot", tenant)
	}
	for ci, c := range probes {
		got, err := snap.Pred.PredictInterval(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Lo) != math.Float64bits(want[ci].Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(want[ci].Hi) {
			t.Fatalf("tenant %q cell (%d,%d): served [%v,%v], offline [%v,%v]",
				tenant, c[0], c[1], got.Lo, got.Hi, want[ci].Lo, want[ci].Hi)
		}
	}
}

// waitTerminal polls a job until done or failed (unlike waitJob it
// tolerates failure — fault tests assert on it).
func waitTerminal(tb testing.TB, s *Service, id uint64) JobInfo {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Job(id)
		if err != nil {
			tb.Fatal(err)
		}
		if info.State == JobDone || info.State == JobFailed {
			return info
		}
		time.Sleep(time.Millisecond)
	}
	tb.Fatalf("job %d did not reach a terminal state", id)
	return JobInfo{}
}

// TestDeadlineAbandonsHungUnit hangs one unit at the executor failpoint
// and fires the injected deadline timer: the job fails with the typed
// deadline error, the hung goroutine's eventual result is discarded
// (never published, never persisted), and the tenant's chain continues
// from the pre-hang state.
func TestDeadlineAbandonsHungUnit(t *testing.T) {
	defer leakCheck(t)()
	timerCh := make(chan time.Time)
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{
		After: func(time.Duration) <-chan time.Time { return timerCh },
	})
	s.Start()

	decomposeTenant(t, s, "h")
	base := s.Snapshot("h")

	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "h", Mode: FailHang, Count: 1})
	info := submitPatch(t, s, "h", 1)
	// The unit is hung at the failpoint; fire its deadline.
	timerCh <- time.Now()
	done := waitTerminal(t, s, info.ID)
	if done.State != JobFailed || !strings.Contains(done.Error, "deadline exceeded") {
		t.Fatalf("hung job = %+v, want deadline failure", done)
	}
	// Release the hung goroutine: it finishes computing but lost the
	// publication claim, so nothing may change.
	release()
	if got := s.Snapshot("h"); got.Version != base.Version {
		t.Fatalf("abandoned unit published version %d", got.Version)
	}

	// The chain resumes from the pre-hang state: the abandoned delta is
	// NOT part of it — ledger and durable chain agree it never happened.
	info = submitPatch(t, s, "h", 2)
	waitJob(t, s, info.ID)
	assertServedEqualsChain(t, s, "h", persistRows, persistCols, []int{2})
	if n := s.metrics.snapshotCounter(mResDeadline, label("tenant", "h")); n != 1 {
		t.Fatalf("deadline counter = %v, want 1", n)
	}
	drain(t, s)

	// Crash and reboot: the durable chain must match the ledger — no
	// trace of the abandoned unit.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s2 := persistService(t, fs, Config{})
	defer func() {
		drain(t, s2)
		_ = s2.Close()
	}()
	s2.Start()
	assertServedEqualsChain(t, s2, "h", persistRows, persistCols, []int{2})
}

// TestQuarantineLifecycle drives a tenant through trip → reject →
// cooldown → probe → clear under an injected clock, pinning every
// admission decision and metric transition.
func TestQuarantineLifecycle(t *testing.T) {
	defer leakCheck(t)()
	clk := newFakeClock()
	s := New(Config{
		Clock:              clk.Now,
		QuarantineAfter:    2,
		QuarantineCooldown: 10 * time.Second,
	})
	s.Start()
	defer drain(t, s)

	decomposeTenant(t, s, "q")
	snap := s.Snapshot("q")

	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "q", Mode: FailError, Count: 2})
	defer release()
	for k := 1; k <= 2; k++ {
		info := submitPatch(t, s, "q", k)
		if got := waitTerminal(t, s, info.ID); got.State != JobFailed {
			t.Fatalf("poisoned job %d = %+v", k, got)
		}
	}

	// Quarantined: admission rejects with the typed error and a
	// Retry-After hint; the old snapshot keeps serving.
	_, err := submitEnvelope(s, Request{
		Tenant: "q", Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(3)),
	})
	if !errors.Is(err, errQuarantined) {
		t.Fatalf("quarantined submit error = %v, want errQuarantined", err)
	}
	var ra *retryAfterError
	if !errors.As(err, &ra) || ra.after <= 0 {
		t.Fatalf("quarantine rejection carries no Retry-After: %v", err)
	}
	if got := s.Snapshot("q"); got.Version != snap.Version {
		t.Fatalf("quarantined tenant's snapshot moved to %d", got.Version)
	}

	// Cooldown expiry admits exactly one probe; its success clears.
	clk.Advance(11 * time.Second)
	info := submitPatch(t, s, "q", 3)
	waitJob(t, s, info.ID)
	info = submitPatch(t, s, "q", 4)
	waitJob(t, s, info.ID)

	for _, c := range []struct {
		event string
		want  float64
	}{{"tripped", 1}, {"probe", 1}, {"cleared", 1}} {
		if n := s.metrics.snapshotCounter(mResQuarTrans, label("event", c.event)); n != c.want {
			t.Fatalf("quarantine transition %q = %v, want %v", c.event, n, c.want)
		}
	}
}

// TestBreakerLifecycle trips the store circuit breaker with exhausted
// persist operations, verifies mutations are rejected (and predictions
// keep serving) while open, and walks it through half-open recovery
// under the injected clock. Store failures must never quarantine the
// tenant — the disk's fault is not the tenant's.
func TestBreakerLifecycle(t *testing.T) {
	defer leakCheck(t)()
	clk := newFakeClock()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{
		Clock:            clk.Now,
		PersistRetries:   -1, // no retries: one failpoint hit = one exhausted op
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Sleep:            func(time.Duration) {},
	})
	s.Start()

	decomposeTenant(t, s, "b")
	snap := s.Snapshot("b")

	release := s.ArmFailpoint(FailPersist, FailpointSpec{Mode: FailError, Count: 2})
	defer release()
	for k := 1; k <= 2; k++ {
		info := submitPatch(t, s, "b", k)
		got := waitTerminal(t, s, info.ID)
		if got.State != JobFailed || !strings.Contains(got.Error, "store unavailable") {
			t.Fatalf("persist-failed job %d = %+v", k, got)
		}
	}

	// Open: mutations rejected with the typed error + Retry-After.
	_, err := submitEnvelope(s, Request{
		Tenant: "b", Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(3)),
	})
	if !errors.Is(err, errStoreUnavailable) {
		t.Fatalf("open-breaker submit error = %v, want errStoreUnavailable", err)
	}
	var ra *retryAfterError
	if !errors.As(err, &ra) || ra.after <= 0 {
		t.Fatalf("breaker rejection carries no Retry-After: %v", err)
	}
	// Reads still serve, and the store's failures did not quarantine
	// the tenant.
	if got := s.Snapshot("b"); got == nil || got.Version != snap.Version {
		t.Fatalf("serving snapshot lost under open breaker: %+v", got)
	}
	if n := s.metrics.snapshotCounter(mResQuarTrans, label("event", "tripped")); n != 0 {
		t.Fatal("store outage tripped the tenant quarantine")
	}

	// Cooldown expiry: the next unit is the half-open probe; the
	// failpoint is exhausted, so it persists and closes the breaker.
	clk.Advance(11 * time.Second)
	info := submitPatch(t, s, "b", 3)
	waitJob(t, s, info.ID)
	for _, c := range []struct {
		to   string
		want float64
	}{{"open", 1}, {"half_open", 1}, {"closed", 1}} {
		if n := s.metrics.snapshotCounter(mResBreakerTrans, label("to", c.to)); n != c.want {
			t.Fatalf("breaker transition to %q = %v, want %v", c.to, n, c.want)
		}
	}
	drain(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDuringPersistBackoff drains the service while a unit is
// mid-backoff between persist retries: the drain must wait for the
// retry to succeed (no lost acknowledgement) and return without
// hanging.
func TestDrainDuringPersistBackoff(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	backingOff := make(chan struct{}, 4)
	s := persistService(t, fs, Config{
		PersistBackoff: time.Millisecond,
		Sleep: func(d time.Duration) {
			select {
			case backingOff <- struct{}{}:
			default:
			}
			time.Sleep(d)
		},
	})
	s.Start()
	decomposeTenant(t, s, "d")

	release := s.ArmFailpoint(FailPersist, FailpointSpec{Mode: FailError, Count: 2})
	defer release()
	info := submitPatch(t, s, "d", 1)
	<-backingOff // the unit is between persist attempts right now

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain during persist backoff: %v", err)
	}
	// The job completed durably despite draining mid-retry.
	if got := waitTerminal(t, s, info.ID); got.State != JobDone {
		t.Fatalf("job after drain = %+v, want done", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s2 := persistService(t, fs, Config{})
	defer func() { _ = s2.Close() }()
	if got := s2.Snapshot("d"); got == nil || got.Version != 2 {
		t.Fatalf("acked update lost across crash: %+v", got)
	}
}

// TestDrainWithBreakerOpen drains while the breaker is open with work
// still queued: queued units fail fast instead of wedging behind a dead
// disk, every job reaches a terminal state, and drain returns.
func TestDrainWithBreakerOpen(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{
		PersistRetries:   -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	s.Start()
	decomposeTenant(t, s, "t1")
	decomposeTenant(t, s, "t2")

	// Everything the disk is asked to do now fails.
	release := s.ArmFailpoint(FailPersist, FailpointSpec{Mode: FailError})
	defer release()
	// Hold t1's unit before it runs until both jobs are admitted: its
	// persist failure trips the breaker, which would otherwise reject
	// the second submit at admission whenever the executor gets there
	// first.
	hold := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "t1", Mode: FailHang, Count: 1})
	i1 := submitPatch(t, s, "t1", 1)
	i2 := submitPatch(t, s, "t2", 1)
	hold()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with open breaker: %v", err)
	}
	// All admitted jobs are terminal; the one behind the trip failed
	// fast on the open circuit.
	g1, g2 := waitTerminal(t, s, i1.ID), waitTerminal(t, s, i2.ID)
	if g1.State != JobFailed || g2.State != JobFailed {
		t.Fatalf("jobs not terminal-failed: %+v / %+v", g1, g2)
	}
	if !strings.Contains(g2.Error, "circuit open") && !strings.Contains(g1.Error, "circuit open") {
		t.Fatalf("no job failed fast on the open circuit: %q / %q", g1.Error, g2.Error)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentSubmit pins the dedupe contract at the service layer:
// a repeated key replays the original acknowledgement (same job ID,
// Deduped set, no second admission), distinct keys admit normally, and
// replays keep working while draining.
func TestIdempotentSubmit(t *testing.T) {
	defer leakCheck(t)()
	s := New(Config{})
	s.Start()

	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	req := Request{Tenant: "i", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	first, err := submitEnvelopeIdem(s, req, "boot:1")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, first.ID)

	replay, err := submitEnvelopeIdem(s, req, "boot:1")
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Deduped || replay.ID != first.ID || replay.State != JobDone {
		t.Fatalf("replay = %+v, want deduped ack of job %d", replay, first.ID)
	}
	if n := s.metrics.snapshotCounter(mAdmitted, label("kind", "decompose")); n != 1 {
		t.Fatalf("admitted = %v after replay, want 1", n)
	}
	if n := s.metrics.snapshotCounter(mResIdemReplays, ""); n != 1 {
		t.Fatalf("replay counter = %v, want 1", n)
	}

	// A fresh key is new work; the same key on another tenant is too
	// (keys are tenant-scoped).
	upd := Request{Tenant: "i", Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(1))}
	u1, err := submitEnvelopeIdem(s, upd, "u:1")
	if err != nil || u1.Deduped {
		t.Fatalf("fresh key: %+v, %v", u1, err)
	}
	waitJob(t, s, u1.ID)

	drain(t, s)
	// Draining: replays still converge, new work is rejected.
	replay, err = submitEnvelopeIdem(s, req, "boot:1")
	if err != nil || !replay.Deduped || replay.ID != first.ID {
		t.Fatalf("replay while draining = %+v, %v", replay, err)
	}
	if _, err := submitEnvelopeIdem(s, upd, "u:2"); !errors.Is(err, errDraining) {
		t.Fatalf("new work while draining: %v, want errDraining", err)
	}
}

// TestIdempotencyAcrossRestart is the exactly-once contract the WAL and
// snapshot meta exist for: acknowledged keys survive a crash, so a
// client retrying across the restart gets the original acknowledgement
// instead of a duplicate execution.
func TestIdempotencyAcrossRestart(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()

	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	dreq := Request{Tenant: "r", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	dinfo, err := submitEnvelopeIdem(s, dreq, "boot:1")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, dinfo.ID)
	upd := func(k int) Request {
		return Request{Tenant: "r", Kind: "update", Refresh: "never",
			Delta: deltaText(t, persistRows, persistCols, persistPatch(k))}
	}
	var uinfo [3]JobInfo
	for k := 1; k <= 2; k++ {
		info, err := submitEnvelopeIdem(s, upd(k), "u:"+string(rune('0'+k)))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, info.ID)
		uinfo[k] = info
	}
	wantVersion := s.Snapshot("r").Version
	drain(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	s2 := persistService(t, fs, Config{})
	s2.Start()
	defer func() {
		drain(t, s2)
		_ = s2.Close()
	}()

	// Every acknowledged key replays with its original job ID.
	for _, c := range []struct {
		req Request
		key string
		id  uint64
	}{
		{dreq, "boot:1", dinfo.ID},
		{upd(1), "u:1", uinfo[1].ID},
		{upd(2), "u:2", uinfo[2].ID},
	} {
		info, err := submitEnvelopeIdem(s2, c.req, c.key)
		if err != nil {
			t.Fatalf("key %q after restart: %v", c.key, err)
		}
		if !info.Deduped || info.ID != c.id || info.State != JobDone {
			t.Fatalf("key %q after restart = %+v, want deduped ack of job %d", c.key, info, c.id)
		}
	}
	// No duplicate execution: the served version is the acknowledged
	// one, and a genuinely new key still admits fresh work.
	if got := s2.Snapshot("r").Version; got != wantVersion {
		t.Fatalf("version %d after replays, want %d", got, wantVersion)
	}
	info, err := submitEnvelopeIdem(s2, upd(3), "u:3")
	if err != nil || info.Deduped {
		t.Fatalf("fresh key after restart: %+v, %v", info, err)
	}
	waitJob(t, s2, info.ID)
}

// TestHTTPResilienceSurface pins the wire-level resilience contract:
// /readyz reflects drain state, queue-full backpressure answers 429
// with a Retry-After header, and the Idempotency-Key header dedupes
// (200 + Idempotency-Replayed) with invalid keys rejected up front.
func TestHTTPResilienceSurface(t *testing.T) {
	defer leakCheck(t)()
	// MaxQueue counts running + queued: the hung unit holds one slot,
	// one update queues behind it, the next bounces.
	s := New(Config{MaxQueue: 2, RetryAfterHint: 2 * time.Second})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post := func(req Request, key string) *http.Response {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		if key != "" {
			hr.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Fully up: ready.
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Keyed decompose admits once (202), then replays (200 + header).
	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	dreq := Request{Tenant: "h", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	var first JobInfo
	resp := post(dreq, "boot:1")
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first keyed submit: %d, replayed=%q", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	if err := decodeBody(resp, &first); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, first.ID)
	var replay JobInfo
	resp = post(dreq, "boot:1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replayed submit: %d, replayed=%q", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	if err := decodeBody(resp, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Deduped || replay.ID != first.ID {
		t.Fatalf("replay body = %+v, want dedupe of job %d", replay, first.ID)
	}

	// Malformed keys never reach admission.
	resp = post(dreq, "bad key")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid key = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Backpressure: hang the executor on the next update, fill the
	// queue behind it, and the next submit bounces with the configured
	// Retry-After.
	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "h", Mode: FailHang, Count: 1})
	upd := func(k int) Request {
		return Request{Tenant: "h", Kind: "update", Refresh: "never",
			Delta: deltaText(t, persistRows, persistCols, persistPatch(k))}
	}
	resp = post(upd(1), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("hung update = %d, want 202", resp.StatusCode)
	}
	var hung JobInfo
	if err := decodeBody(resp, &hung); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		info, err := s.Job(hung.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started running", hung.ID)
		}
		time.Sleep(time.Millisecond)
	}
	resp = post(upd(2), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued update = %d, want 202", resp.StatusCode)
	}
	var queued JobInfo
	if err := decodeBody(resp, &queued); err != nil {
		t.Fatal(err)
	}
	resp = post(upd(3), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue update = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	resp.Body.Close()

	release()
	waitJob(t, s, hung.ID)
	waitJob(t, s, queued.ID)

	// Draining flips readiness while replays keep converging.
	drain(t, s)
	resp = get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	var rb struct {
		Status string `json:"status"`
	}
	if err := decodeBody(resp, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Status != "draining" {
		t.Fatalf("readyz status = %q, want draining", rb.Status)
	}
	resp = post(dreq, "boot:1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replay while draining = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
