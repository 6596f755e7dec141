// Package lock implements the fine-grained lock manager backing serializable
// transactions (Section 2.1: "SQL Server supports a number of isolation
// modes, including serializable, via fine grained locking"). It provides
// shared/exclusive record locks with lock upgrade, wait-for-graph deadlock
// detection, and a timeout backstop.
//
// Snapshot-isolation reads never touch the lock manager — that is snapshot
// isolation's selling point ("reads are not blocked by concurrent updates").
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
)

// Observability: blocked-wait latency (uncontended grants are not observed)
// and the two abort causes the lock manager can inflict on a transaction.
var (
	obsWaitLat   = obs.NewHistogram("immortaldb_lock_wait_seconds", "Time a transaction spent blocked waiting for a record lock (granted waits only).", obs.LatencyBuckets)
	obsTimeouts  = obs.NewCounter("immortaldb_lock_timeouts_total", "Lock waits abandoned by the timeout backstop.")
	obsDeadlocks = obs.NewCounter("immortaldb_lock_deadlocks_total", "Lock requests refused because waiting would close a wait-for cycle.")
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Key names a lockable resource: one record of one table.
type Key struct {
	Table uint32
	Key   string
}

// Errors returned by Acquire.
var (
	ErrDeadlock = errors.New("lock: deadlock detected")
	ErrTimeout  = errors.New("lock: timed out waiting for lock")
)

// DefaultTimeout bounds a single lock wait.
const DefaultTimeout = 10 * time.Second

type waiter struct {
	tid  itime.TID
	mode Mode
	ch   chan error // closed/sent when granted or aborted
}

type entry struct {
	holders map[itime.TID]Mode
	queue   []*waiter
}

// Manager is the lock manager. The zero value is not usable; call New.
type Manager struct {
	mu      sync.Mutex
	locks   map[Key]*entry
	held    map[itime.TID]map[Key]Mode // per-transaction held locks
	waitFor map[itime.TID]Key          // which key each blocked txn waits on
	Timeout time.Duration
	// Clock is the timeline waits time out on (default itime.Real()).
	Clock itime.Timeline
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		Clock:   itime.Real(),
		locks:   make(map[Key]*entry),
		held:    make(map[itime.TID]map[Key]Mode),
		waitFor: make(map[itime.TID]Key),
		Timeout: DefaultTimeout,
	}
}

// compatible reports whether a request by tid in mode m can be granted given
// the current holders.
func (e *entry) compatible(tid itime.TID, m Mode) bool {
	for h, hm := range e.holders {
		if h == tid {
			continue // own lock: upgrade handled by caller
		}
		if m == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// Acquire takes key in mode for tid, blocking until granted, deadlock, or
// timeout. Re-acquiring an already-held lock (same or weaker mode) returns
// immediately; holding Shared and requesting Exclusive performs an upgrade.
func (m *Manager) Acquire(tid itime.TID, key Key, mode Mode) error {
	m.mu.Lock()
	e, ok := m.locks[key]
	if !ok {
		e = &entry{holders: make(map[itime.TID]Mode)}
		m.locks[key] = e
	}
	if have, holding := e.holders[tid]; holding {
		if have == Exclusive || mode == Shared {
			m.mu.Unlock()
			return nil
		}
		// Upgrade S -> X: grantable when no other holder.
		if len(e.holders) == 1 {
			e.holders[tid] = Exclusive
			m.held[tid][key] = Exclusive
			m.mu.Unlock()
			return nil
		}
	} else if e.compatible(tid, mode) && len(e.queue) == 0 {
		m.grantLocked(e, tid, key, mode)
		m.mu.Unlock()
		return nil
	}

	// Must wait. Deadlock check: would waiting close a cycle?
	if m.wouldDeadlockLocked(tid, e) {
		m.mu.Unlock()
		obsDeadlocks.Inc()
		return fmt.Errorf("%w: txn %d on %v", ErrDeadlock, tid, key)
	}
	w := &waiter{tid: tid, mode: mode, ch: make(chan error, 1)}
	e.queue = append(e.queue, w)
	m.waitFor[tid] = key
	timeout := m.Timeout
	m.mu.Unlock()

	waitStart := obs.Now()
	// The timeout settles the wait under m.mu, so it and a grant (which
	// dequeues the waiter under the same lock) cannot both happen.
	timer := m.Clock.AfterFunc(timeout, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.removeWaiterLocked(key, w) {
			delete(m.waitFor, tid)
			w.ch <- fmt.Errorf("%w: txn %d on %v", ErrTimeout, tid, key)
		}
	})
	err := <-w.ch
	timer.Stop()
	if errors.Is(err, ErrTimeout) {
		obsTimeouts.Inc()
	} else {
		obsWaitLat.ObserveSince(waitStart)
	}
	return err
}

func (m *Manager) grantLocked(e *entry, tid itime.TID, key Key, mode Mode) {
	if cur, ok := e.holders[tid]; !ok || mode == Exclusive || cur == Shared {
		if cur, ok := e.holders[tid]; !ok || mode > cur {
			e.holders[tid] = mode
		}
	}
	hm := m.held[tid]
	if hm == nil {
		hm = make(map[Key]Mode)
		m.held[tid] = hm
	}
	if cur, ok := hm[key]; !ok || mode > cur {
		hm[key] = mode
	}
}

// wouldDeadlockLocked reports whether blocking tid on entry e creates a
// cycle in the wait-for graph (tid waits for e's holders; each blocked txn
// waits for the holders of the key it is queued on).
func (m *Manager) wouldDeadlockLocked(tid itime.TID, e *entry) bool {
	// DFS from each current holder of e: can we reach tid?
	seen := make(map[itime.TID]bool)
	var reach func(from itime.TID) bool
	reach = func(from itime.TID) bool {
		if from == tid {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		key, blocked := m.waitFor[from]
		if !blocked {
			return false
		}
		blockedOn, ok := m.locks[key]
		if !ok {
			return false
		}
		for h := range blockedOn.holders {
			if h != from && reach(h) {
				return true
			}
		}
		return false
	}
	for h := range e.holders {
		if h != tid && reach(h) {
			return true
		}
	}
	return false
}

// removeWaiterLocked dequeues w, reporting whether it was still queued.
func (m *Manager) removeWaiterLocked(key Key, w *waiter) bool {
	e, ok := m.locks[key]
	if !ok {
		return false
	}
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return true
		}
	}
	return false
}

// ReleaseAll frees every lock held by tid (commit or abort) and wakes
// waiters that become grantable.
func (m *Manager) ReleaseAll(tid itime.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.held[tid] {
		e := m.locks[key]
		if e == nil {
			continue
		}
		delete(e.holders, tid)
		m.wakeLocked(key, e)
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(m.locks, key)
		}
	}
	delete(m.held, tid)
	delete(m.waitFor, tid)
}

// wakeLocked grants queued waiters in FIFO order while compatible.
func (m *Manager) wakeLocked(key Key, e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if have, holding := e.holders[w.tid]; holding && w.mode == Exclusive && have == Shared {
			// Queued upgrade.
			if len(e.holders) != 1 {
				return
			}
		} else if !e.compatible(w.tid, w.mode) {
			return
		}
		e.queue = e.queue[1:]
		m.grantLocked(e, w.tid, key, w.mode)
		delete(m.waitFor, w.tid)
		w.ch <- nil
	}
}

// Held returns the mode tid holds on key, if any.
func (m *Manager) Held(tid itime.TID, key Key) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mode, ok := m.held[tid][key]
	return mode, ok
}

// Count returns the number of distinct locked resources (for tests).
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.locks)
}
