package immortaldb

// The engine waits on Options.Clock and nothing else: on a SimClock, a lock
// wait, the Close drain and the history compactor move only when the test
// advances the clock. Every wait below is bounded by a real-time guard, so an
// engine that waited on the OS clock fails instead of hanging.

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/lock"
)

// realTimeGuard bounds how long a test waits for something the clock
// should already have caused.
const realTimeGuard = 10 * time.Second

// waitParked returns once some goroutine is blocked inside fn. Each wait
// tested here arms its timer before it blocks, so from then on an Advance
// is sure to reach it.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(realTimeGuard); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, fn+"(") && !strings.Contains(header, "[running") && !strings.Contains(header, "[runnable") {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked in %s after %v", fn, realTimeGuard)
}

// awaitResult receives from ch, failing the test if nothing arrives within
// the real-time guard.
func awaitResult[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(realTimeGuard):
		t.Fatalf("%s: nothing after %v of real time", what, realTimeGuard)
		panic("unreachable")
	}
}

// pumpedClock is testClock with a pump moving it at about the speed of real
// time, for concurrent workloads whose lock waits may end only by timing
// out: a wait queued behind another waiter is outside the deadlock
// detector's view.
func pumpedClock(t *testing.T) *itime.SimClock {
	c := testClock()
	t.Cleanup(c.StartPump(time.Millisecond, time.Millisecond))
	return c
}

func TestLockTimeoutOnEngineClock(t *testing.T) {
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	const timeout = time.Minute
	db, _ := openTestDB(t, func(o *Options) {
		o.Clock = clock
		o.LockTimeout = timeout
	})
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "v0")

	// blockedSet starts a transaction whose write of k must wait.
	blockedSet := func(val string) (*Tx, chan error) {
		tx, _ := db.Begin(Serializable)
		done := make(chan error, 1)
		go func() { done <- tx.Set(tbl, []byte("k"), []byte(val)) }()
		waitParked(t, "immortaldb/internal/lock.(*Manager).Acquire")
		return tx, done
	}
	holder, _ := db.Begin(Serializable)
	if err := holder.Set(tbl, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// A tick short of the timeout the waiter is still queued, so the
	// holder's commit grants it the lock.
	waiter, done := blockedSet("v2")
	clock.Advance(timeout - itime.TickDuration)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := awaitResult(t, done, "lock wait after the holder committed"); err != nil {
		t.Fatalf("wait a tick short of LockTimeout: %v, want the lock", err)
	}

	// A full LockTimeout on the clock ends the next wait with ErrTimeout.
	late, done := blockedSet("v3")
	clock.Advance(timeout)
	if err := awaitResult(t, done, "lock wait after Advance(LockTimeout)"); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("wait after Advance(LockTimeout): %v, want lock.ErrTimeout", err)
	}
	late.Rollback()
	if err := waiter.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactorRunsOnEngineClock(t *testing.T) {
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	const every = time.Minute
	db, _ := openTestDB(t, tieredOpts(func(o *Options) {
		o.Clock = clock
		o.HistCompactEvery = every
	}))
	waitParked(t, "immortaldb.(*DB).compactorLoop")
	for pass := uint64(1); pass <= 3; pass++ {
		clock.Advance(every)
		for deadline := time.Now().Add(realTimeGuard); db.Stats().HistCompactions < pass; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("no compaction pass %d after %v of real time", pass, realTimeGuard)
			}
		}
		if got := db.Stats().HistCompactions; got != pass {
			t.Fatalf("%d compaction passes after %d × Advance(HistCompactEvery)", got, pass)
		}
	}
}
