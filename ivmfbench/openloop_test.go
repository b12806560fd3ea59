package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	g := openLoop{start: start, period: 250 * time.Millisecond, n: 5}
	for k := 0; k < 5; k++ {
		if got, want := g.due(k), start.Add(time.Duration(k)*250*time.Millisecond); !got.Equal(want) {
			t.Errorf("due(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestOpenLoopChargesStalls stalls the first operation for four periods
// with one operation allowed in flight: the next operations are sent
// late, the lateness is reported, and their latency counts from their
// due time, not from when they were sent.
func TestOpenLoopChargesStalls(t *testing.T) {
	const period = 20 * time.Millisecond
	g := openLoop{start: time.Now().Add(5 * time.Millisecond), period: period, n: 3, maxInFlight: 1}
	var mu sync.Mutex
	sent := make([]time.Time, g.n)
	latency := make([]time.Duration, g.n)
	lags := g.run(context.Background(), func(k int, due time.Time) {
		mu.Lock()
		sent[k] = time.Now()
		mu.Unlock()
		if k == 0 {
			time.Sleep(4 * period)
		}
		mu.Lock()
		latency[k] = time.Since(due)
		mu.Unlock()
	})
	if len(lags) != g.n {
		t.Fatalf("got %d lateness samples, want %d", len(lags), g.n)
	}
	for k, lag := range lags {
		if lag < 0 {
			t.Errorf("op %d sent %v before it was due", k, -lag)
		}
		if got := sent[k].Sub(g.due(k)); got < lag {
			t.Errorf("op %d: reported lateness %v exceeds the observed %v", k, lag, got)
		}
		if latency[k] < lag {
			t.Errorf("op %d: latency %v does not include its lateness %v", k, latency[k], lag)
		}
	}
	// op 1 was due one period in but could only start after op 0's
	// four-period stall.
	if lags[1] < 2*period {
		t.Errorf("op 1 lateness %v, want at least %v", lags[1], 2*period)
	}
	if lags[0] > period {
		t.Errorf("op 0 lateness %v on an idle generator", lags[0])
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := openLoop{start: time.Now(), period: time.Hour, n: 3, maxInFlight: 4}
	var mu sync.Mutex
	ran := 0
	done := make(chan []time.Duration)
	go func() {
		done <- g.run(ctx, func(int, time.Time) {
			mu.Lock()
			ran++
			mu.Unlock()
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case lags := <-done:
		if len(lags) != 1 || ran != 1 {
			t.Errorf("after cancel: %d lateness samples, %d ops ran; want 1 and 1", len(lags), ran)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
