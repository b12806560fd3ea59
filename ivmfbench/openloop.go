package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// openLoop is a fixed-rate open-loop generator: operation k is due at
// start + k·period and is dispatched at its due time whether or not the
// earlier operations have finished, the way independent users arrive.
// Operations time themselves from their due time, so a stall in the
// system (or in the generator) is charged to every operation it delays.
type openLoop struct {
	start  time.Time
	period time.Duration
	n      int
	// maxInFlight bounds concurrently running operations; a dispatch
	// that has to wait for a slot shows up as generator lateness.
	maxInFlight int
}

// due is operation k's scheduled send time.
func (g openLoop) due(k int) time.Time {
	return g.start.Add(time.Duration(k) * g.period)
}

// run dispatches every operation on schedule and returns once all of
// them have returned. It reports each dispatch's lateness: how long after
// its due time the operation actually started. A cancelled ctx stops
// further dispatches; operations already started still run to the end.
func (g openLoop) run(ctx context.Context, op func(k int, due time.Time)) []time.Duration {
	// The generator sleeps on its own OS thread with nanosleep: the Go
	// runtime's timers round sub-millisecond waits up to the next
	// millisecond when the process is idle, which would add up to 1 ms
	// of the harness's own lateness to every operation.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	slots := make(chan struct{}, max(1, g.maxInFlight))
	lags := make([]time.Duration, 0, g.n)
	var wg sync.WaitGroup
	for k := 0; k < g.n; k++ {
		due := g.due(k)
		if !sleepUntil(ctx, due) {
			wg.Wait()
			return lags
		}
		select {
		case <-ctx.Done():
			wg.Wait()
			return lags
		case slots <- struct{}{}:
		}
		lags = append(lags, time.Since(due))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { <-slots }()
			op(k, due)
		}(k)
	}
	wg.Wait()
	return lags
}

// sleepUntil blocks until t, in slices short enough to notice a
// cancelled ctx; it reports false if ctx was cancelled first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		if ctx.Err() != nil {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the slice
	}
}
