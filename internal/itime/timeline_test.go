package itime

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimTimelineAdvanceFiresInOrder(t *testing.T) {
	tl := NewSimClock(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	var order []int
	tl.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	tl.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	tl.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })

	tl.Advance(5 * time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("fired early: %v", order)
	}
	tl.Advance(25 * time.Millisecond) // now at +30ms: all three due
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", order)
	}
}

func TestSimTimelineStop(t *testing.T) {
	tl := NewSimClock(time.Unix(0, 0))
	var fired atomic.Bool
	timer := tl.AfterFunc(time.Second, func() { fired.Store(true) })
	if !timer.Stop() {
		t.Fatal("Stop on pending timer reported not-pending")
	}
	tl.Advance(2 * time.Second)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
	if timer.Stop() {
		t.Fatal("second Stop reported pending")
	}
}

func TestSimTimelineSleepAndTicks(t *testing.T) {
	start := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	tl := NewSimClock(start)
	if got := tl.Now(); !got.Equal(start) {
		t.Fatalf("Now = %v, want %v", got, start)
	}
	tick0 := tl.NowTick()

	done := make(chan error, 1)
	go func() { done <- tl.Sleep(context.Background(), 100*time.Millisecond) }()
	// The sleeper must not return until virtual time passes it.
	select {
	case <-done:
		t.Fatal("Sleep returned with the clock standing still")
	case <-time.After(20 * time.Millisecond):
	}
	tl.Advance(100 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got, want := tl.NowTick()-tick0, int64(5); got != want {
		t.Fatalf("ticks advanced by %d, want %d (100ms / 20ms)", got, want)
	}
}

func TestSimTimelineSleepHonorsContext(t *testing.T) {
	tl := NewSimClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tl.Sleep(ctx, time.Hour) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Sleep under canceled ctx: %v", err)
	}
}

func TestSimTimelinePump(t *testing.T) {
	tl := NewSimClock(time.Unix(0, 0))
	stop := tl.StartPump(100*time.Microsecond, 10*time.Millisecond)
	defer stop()
	if err := tl.Sleep(context.Background(), 5*time.Second); err != nil {
		t.Fatalf("pumped Sleep: %v", err)
	}
}

func TestSimTimelineAfterFuncChains(t *testing.T) {
	// A callback scheduling a further callback within the same Advance
	// window fires inside that Advance.
	tl := NewSimClock(time.Unix(0, 0))
	var hits atomic.Int32
	tl.AfterFunc(10*time.Millisecond, func() {
		hits.Add(1)
		tl.AfterFunc(10*time.Millisecond, func() { hits.Add(1) })
	})
	tl.Advance(50 * time.Millisecond)
	if got := hits.Load(); got != 2 {
		t.Fatalf("chained callbacks fired %d times, want 2", got)
	}
}

func TestSimClockAutoStepDoesNotFire(t *testing.T) {
	// AutoStep moves time on NowTick but never runs a callback: the one it
	// passes over fires at the next Advance, however small.
	c := NewSimClock(time.Unix(0, 0))
	c.AutoStep = 10
	var fired atomic.Bool
	c.AfterFunc(5*TickDuration, func() { fired.Store(true) })
	if got := c.NowTick(); got != 10 {
		t.Fatalf("NowTick after AutoStep = %d, want 10", got)
	}
	if fired.Load() {
		t.Fatal("NowTick fired a callback")
	}
	c.Advance(time.Nanosecond)
	if !fired.Load() {
		t.Fatal("callback passed over by AutoStep did not fire at the next Advance")
	}
	if got := c.Now(); !got.Equal(time.Unix(0, int64(10*TickDuration)+1)) {
		t.Fatalf("Now = %v: Advance must not move time back to the callback's deadline", got)
	}
}

func TestRealTimelineBasics(t *testing.T) {
	tl := Real()
	if err := tl.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	tl.AfterFunc(time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	if tl.NowTick() <= 0 {
		t.Fatal("real NowTick not positive")
	}
}
