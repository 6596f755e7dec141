package itime

import (
	"container/heap"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Timeline is the engine's one clock. It supplies the wall ticks commit
// timestamps are drawn from and everything that waits: deadlines, sleeps and
// scheduled callbacks. Real is the production timeline; SimClock is a
// virtual one that moves only when told to, so whole client/server clusters
// run wall-clock-fast under the deterministic simulation harness while
// commit timestamps, lock waits, idle deadlines and retry backoffs all read
// the same clock. Implementations must be safe for concurrent use and must
// never move backwards.
type Timeline interface {
	// NowTick returns the current time in TickDuration units since the Unix
	// epoch.
	NowTick() int64
	// Now returns the current time. On a simulated timeline this is virtual
	// time; values from Now are only comparable to other values from the
	// same timeline.
	Now() time.Time
	// Sleep blocks for d, honoring ctx cancellation.
	Sleep(ctx context.Context, d time.Duration) error
	// AfterFunc schedules f to run once d has elapsed.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle to a scheduled AfterFunc callback.
type Timer interface {
	// Stop cancels the callback, reporting whether it was still pending.
	Stop() bool
}

// Real returns the process-wide real timeline, backed by the OS clock.
func Real() Timeline { return realSingleton }

var realSingleton = &realTimeline{}

// realTimeline reads the operating system clock. Its ticks mirror the 20 ms
// resolution of SQL Server's date/time type, and it guards against the OS
// clock stepping backwards by never returning a tick smaller than one it has
// already returned.
type realTimeline struct{ last atomic.Int64 }

func (r *realTimeline) NowTick() int64 {
	now := time.Now().UnixNano() / int64(TickDuration)
	for {
		prev := r.last.Load()
		if now <= prev {
			return prev
		}
		if r.last.CompareAndSwap(prev, now) {
			return now
		}
	}
}

func (r *realTimeline) Now() time.Time { return time.Now() }

func (r *realTimeline) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *realTimeline) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

// SimClock is a deterministic virtual timeline for tests, simulations and
// benchmark set-ups. Time stands still except in two ways:
//
//   - Advance moves it (called by hand, or by the pump StartPump starts),
//     firing every AfterFunc callback whose deadline it passes, in deadline
//     order. Callbacks fire nowhere else.
//   - With AutoStep set, reading NowTick moves it by AutoStep ticks every
//     AutoEvery reads, which deterministically spreads transactions across
//     ticks so the sequence-number machinery is exercised. NowTick is read
//     under the engine's commit lock, so it never runs a callback: one
//     passed over this way fires at the next Advance.
//
// The zero value starts at the Unix epoch.
type SimClock struct {
	mu      sync.Mutex
	now     int64 // virtual nanoseconds since the Unix epoch
	seq     int64 // tiebreak so same-deadline waiters fire in creation order
	reads   int64
	waiters waiterHeap

	AutoStep  int64 // ticks to advance after every AutoEvery reads (0 = never)
	AutoEvery int64 // number of reads between automatic steps (0 treated as 1)
}

// NewSimClock returns a clock positioned at start, rounded down to a whole
// tick.
func NewSimClock(start time.Time) *SimClock {
	return &SimClock{now: start.UnixNano() / int64(TickDuration) * int64(TickDuration)}
}

// NowTick returns virtual time in TickDuration units, first taking the
// AutoStep if this read is due one.
func (s *SimClock) NowTick() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.AutoStep > 0 {
		every := max(s.AutoEvery, 1)
		s.reads++
		if s.reads%every == 0 {
			s.now += s.AutoStep * int64(TickDuration)
		}
	}
	return s.now / int64(TickDuration)
}

// Now returns the current virtual time.
func (s *SimClock) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Unix(0, s.now).UTC()
}

// Sleep blocks until the virtual clock has advanced by d (or ctx is done).
// Something else must advance the clock — Advance or the pump — or Sleep
// waits forever.
func (s *SimClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	ch := make(chan struct{})
	t := s.AfterFunc(d, func() { close(ch) })
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

// AfterFunc schedules f once the virtual clock passes now+d. The Advance
// that passes it runs f on its caller's goroutine, so f must not wait on
// anything that caller holds. Non-positive d runs f immediately in its own
// goroutine, like time.AfterFunc.
func (s *SimClock) AfterFunc(d time.Duration, f func()) Timer {
	if d <= 0 {
		go f()
		return (*simWaiter)(nil)
	}
	s.mu.Lock()
	s.seq++
	w := &simWaiter{clk: s, at: s.now + int64(d), seq: s.seq, f: f}
	heap.Push(&s.waiters, w)
	s.mu.Unlock()
	return w
}

// Advance moves virtual time forward by d, firing every callback whose
// deadline it passes, in deadline order. Callbacks run on the calling
// goroutine with the clock unlocked, so they may schedule further callbacks
// (which fire in this same Advance if they land within it).
func (s *SimClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	target := s.now + int64(d)
	for {
		w := s.waiters.peek()
		if w == nil || w.at > target {
			break
		}
		heap.Pop(&s.waiters)
		if w.stopped {
			continue
		}
		s.now = max(s.now, w.at)
		w.fired = true
		s.mu.Unlock()
		w.f()
		s.mu.Lock()
	}
	s.now = max(s.now, target) // an AutoStep during a callback may have passed it
	s.mu.Unlock()
}

// StartPump starts a goroutine that advances virtual time by step every poll
// of real time, turning the clock into a fast-forwarded one (speedup =
// step/poll). The returned function stops it. The pump's real-time cadence
// is not deterministic — simulations must therefore keep their semantics
// insensitive to how far virtual time drifts between events (deadlines far
// larger than any virtual interval a single operation spans), which the
// scenario harness does.
func (s *SimClock) StartPump(poll, step time.Duration) (stop func()) {
	if poll <= 0 {
		poll = 200 * time.Microsecond
	}
	if step <= 0 {
		step = 100 * time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			time.Sleep(poll)
			s.Advance(step)
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// simWaiter is one scheduled callback on a SimClock's heap. Its fields are
// guarded by clk.mu.
type simWaiter struct {
	clk     *SimClock
	at      int64
	seq     int64
	f       func()
	stopped bool
	fired   bool
}

// Stop implements Timer. A nil receiver (the immediate-fire case) reports
// not-pending. A Stop racing the fire may lose, as with time.Timer.
func (w *simWaiter) Stop() bool {
	if w == nil {
		return false
	}
	w.clk.mu.Lock()
	defer w.clk.mu.Unlock()
	if w.fired || w.stopped {
		return false
	}
	w.stopped = true
	return true
}

// waiterHeap is a min-heap on (at, seq).
type waiterHeap []*simWaiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*simWaiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

func (h waiterHeap) peek() *simWaiter {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}
