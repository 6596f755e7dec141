// Package admit is the serving layer's admission control: the gate that
// decides, before a statement touches the engine, whether executing it now
// is worth more than shedding it cheaply.
//
// Three mechanisms compose:
//
//   - Per-tenant token buckets throttle each tenant's request rate, keyed
//     off the tenant-packed BIGINT key scheme (see TenantFromStatement).
//     Statements carrying no tenant key draw from a shared default bucket.
//   - An adaptive global concurrency limit bounds how many statements
//     execute at once. With a latency target set, the limit follows AIMD:
//     it creeps up while observed latency stays under the target and cuts
//     multiplicatively when latency overshoots, so it tracks what the
//     hardware actually sustains rather than a guessed constant.
//   - A bounded FIFO queue absorbs short bursts over the limit.
//     Deadline-aware shedding keeps the queue honest: a request that
//     cannot plausibly start before its wait allowance expires — judged
//     against the gate's own latency estimate — is shed immediately
//     rather than parked to time out, and a full queue sheds instantly.
//
// Every shed carries a retry-after hint so a cooperative client can back
// off exactly as long as the server expects to stay busy, instead of
// burning its retry budget probing. Requests from sessions holding an open
// transaction bypass the gate entirely (Priority): a transaction that
// already holds locks must be able to finish, or the gate would convert
// overload into deadlock.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
)

// Priority classifies a request for admission.
type Priority int

const (
	// PriorityNew is a request starting new work: a BEGIN, or an
	// auto-commit statement. These are gated.
	PriorityNew Priority = iota
	// PriorityTxn is a request from a session that already holds an open
	// transaction. It bypasses the gate: the transaction holds locks, and
	// stalling it behind fresh arrivals would invert the backpressure into
	// deadlock. Finishing it is also the fastest way to free capacity.
	PriorityTxn
)

// Quota is one token bucket's shape. The zero value is unlimited.
type Quota struct {
	// Rate refills the bucket in requests per second. Zero means no
	// time-based refill: the bucket only refills via Gate.Refill, which the
	// simulation harness calls at deterministic phase barriers.
	Rate float64
	// Burst is the bucket capacity. Zero or negative means unlimited — no
	// bucket is kept at all.
	Burst float64
}

func (q Quota) unlimited() bool { return q.Burst <= 0 }

// Config shapes a Gate. Zero values take the documented defaults.
type Config struct {
	// Default is the bucket untagged statements (no tenant key) share.
	Default Quota
	// Tenant is the bucket shape for any tenant without a PerTenant entry.
	Tenant Quota
	// PerTenant overrides Tenant for specific tenants.
	PerTenant map[uint32]Quota

	// Limit is the starting global concurrency limit (default 64).
	Limit int
	// MinLimit and MaxLimit clamp the adaptive limit
	// (defaults Limit/8, 4×Limit).
	MinLimit int
	MaxLimit int
	// Target is the latency the adaptive limit steers toward. Zero
	// disables adaptation: the limit stays fixed at Limit.
	Target time.Duration

	// MaxQueue bounds how many requests may wait for a concurrency slot
	// (default 2×Limit). Arrivals beyond it are shed immediately.
	MaxQueue int
	// MaxWait is a queued request's wait allowance (default 1s). A request
	// the gate estimates cannot start within it is shed on arrival; one
	// that waits it out is shed then.
	MaxWait time.Duration
	// RetryHint is the retry-after hint attached to sheds when the gate
	// has no better estimate (default 50ms).
	RetryHint time.Duration

	// Clock supplies time for bucket refill, AIMD cooldown, and queue
	// timeouts (default the real timeline).
	Clock itime.Timeline
}

func (c Config) withDefaults() Config {
	if c.Limit <= 0 {
		c.Limit = 64
	}
	if c.MinLimit <= 0 {
		c.MinLimit = max(1, c.Limit/8)
	}
	if c.MaxLimit < c.Limit {
		c.MaxLimit = 4 * c.Limit
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.Limit
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Second
	}
	if c.RetryHint <= 0 {
		c.RetryHint = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = itime.Real()
	}
	return c
}

// ErrOverloaded matches every gate shed via errors.Is.
var ErrOverloaded = errors.New("admit: overloaded")

// OverloadError reports a shed request: why, for whom, and when a retry is
// worth sending.
type OverloadError struct {
	// Reason is the mechanism that shed: "tenant quota", "queue full",
	// "deadline", or "queue timeout".
	Reason string
	// Tenant is the tenant the request was attributed to (0 = untagged).
	Tenant uint32
	// RetryAfter is the server's estimate of when a retry could succeed.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.Tenant != 0 {
		return fmt.Sprintf("admit: overloaded (%s, tenant %d)", e.Reason, e.Tenant)
	}
	return fmt.Sprintf("admit: overloaded (%s)", e.Reason)
}

// Is reports errors.Is(err, ErrOverloaded) for every OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// obsWait is the queue-wait distribution; admission counts, queue depth and
// the limit are per gate (Stats).
var obsWait = obs.NewHistogram("immortald_admission_wait_seconds",
	"Time admitted requests spent queued for a slot.", obs.LatencyBuckets)

// Gate is the admission gate. One Gate serves one server; all methods are
// safe for concurrent use.
type Gate struct {
	cfg    Config
	clock  itime.Timeline
	bypass atomic.Bool

	mu       sync.Mutex
	buckets  map[uint32]*bucket
	queue    []*waiter
	inflight int
	limit    float64 // adaptive concurrency limit, [MinLimit, MaxLimit]
	ewma     time.Duration
	lastDec  time.Time

	admitted uint64
	shed     uint64
	bypassed uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

type waiter struct {
	ch      chan struct{}
	granted bool
	gone    bool // abandoned by its request; skip when handing out slots
}

// Stats is a point-in-time snapshot for /healthz and oracles.
type Stats struct {
	Admitted uint64 // requests admitted (fast path or after queueing)
	Shed     uint64 // requests shed
	Bypassed uint64 // in-transaction requests that bypassed the gate
	Queued   int    // requests currently waiting
	Inflight int    // gated requests currently executing
	Limit    int    // current adaptive concurrency limit
}

// New builds a Gate.
func New(cfg Config) *Gate {
	cfg = cfg.withDefaults()
	g := &Gate{
		cfg:     cfg,
		clock:   cfg.Clock,
		buckets: make(map[uint32]*bucket),
		limit:   float64(cfg.Limit),
	}
	return g
}

// Admit asks to start one request for the given tenant (0 = untagged). On
// admission it returns a release func the caller must invoke exactly once
// when the request finishes — release feeds the observed latency back into
// the adaptive limit and hands the slot to the next waiter. On a shed it
// returns an *OverloadError carrying the retry-after hint. ctx only bounds
// the queue wait; the fast paths never block.
func (g *Gate) Admit(ctx context.Context, tenant uint32, pri Priority) (release func(), err error) {
	start := g.clock.Now()
	if pri == PriorityTxn || g.bypass.Load() {
		g.mu.Lock()
		g.bypassed++
		g.mu.Unlock()
		return func() { g.release(start, false) }, nil
	}

	g.mu.Lock()
	if ok, hint := g.takeTokenLocked(tenant); !ok {
		return nil, g.shedLocked(&OverloadError{Reason: "tenant quota", Tenant: tenant, RetryAfter: hint})
	}
	if g.inflight < g.limitNow() {
		g.inflight++
		g.admitted++
		g.mu.Unlock()
		return func() { g.release(start, true) }, nil
	}

	// Over the limit: queue, unless the queue is full or this request has
	// no realistic chance of starting within its wait allowance.
	if len(g.queue) >= g.cfg.MaxQueue {
		return nil, g.shedLocked(&OverloadError{Reason: "queue full", Tenant: tenant, RetryAfter: g.waitHintLocked()})
	}
	if est := g.estWaitLocked(len(g.queue) + 1); est > g.cfg.MaxWait {
		return nil, g.shedLocked(&OverloadError{Reason: "deadline", Tenant: tenant, RetryAfter: est})
	}
	w := &waiter{ch: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()

	timedOut := make(chan struct{})
	tm := g.clock.AfterFunc(g.cfg.MaxWait, func() { close(timedOut) })
	select {
	case <-w.ch:
		tm.Stop()
	case <-timedOut:
	case <-ctx.Done():
		tm.Stop()
	}

	g.mu.Lock()
	if w.granted {
		// The slot arrived, possibly racing the timeout. Keep it unless
		// the caller itself gave up.
		if ctx.Err() != nil {
			g.mu.Unlock()
			g.release(start, true)
			return nil, ctx.Err()
		}
		g.admitted++
		g.mu.Unlock()
		obsWait.Observe(g.clock.Now().Sub(start).Seconds())
		return func() { g.release(start, true) }, nil
	}
	w.gone = true
	if ctx.Err() != nil {
		g.mu.Unlock()
		return nil, ctx.Err()
	}
	return nil, g.shedLocked(&OverloadError{Reason: "queue timeout", Tenant: tenant, RetryAfter: g.waitHintLocked()})
}

// shedLocked counts one shed and releases the mutex.
func (g *Gate) shedLocked(e *OverloadError) error {
	g.shed++
	g.mu.Unlock()
	return e
}

// release retires one request. slot=true returns a concurrency slot (or
// hands it to the next waiter); slot=false is a gate bypass, which only
// contributes its latency observation.
func (g *Gate) release(start time.Time, slot bool) {
	now := g.clock.Now()
	g.mu.Lock()
	g.noteLatencyLocked(now, now.Sub(start))
	if !slot {
		g.mu.Unlock()
		return
	}
	handed := false
	if g.inflight <= g.limitNow() {
		for len(g.queue) > 0 {
			w := g.queue[0]
			g.queue = g.queue[1:]
			if w.gone {
				continue
			}
			w.granted = true
			close(w.ch) // slot transfers: inflight stays
			handed = true
			break
		}
	}
	if !handed {
		g.inflight--
	}
	g.mu.Unlock()
}

// noteLatencyLocked feeds one completion latency into the wait estimator
// and, when a target is set, the AIMD limit: additive increase while under
// target (and only under pressure, so an idle gate doesn't drift), one
// multiplicative decrease per target interval when over it.
func (g *Gate) noteLatencyLocked(now time.Time, lat time.Duration) {
	if lat < 0 {
		lat = 0
	}
	if g.ewma == 0 {
		g.ewma = lat
	} else {
		g.ewma = (7*g.ewma + lat) / 8
	}
	if g.cfg.Target <= 0 {
		return
	}
	if lat > g.cfg.Target {
		if now.Sub(g.lastDec) >= g.cfg.Target {
			g.limit = math.Max(float64(g.cfg.MinLimit), g.limit*0.7)
			g.lastDec = now
		}
	} else if g.inflight+len(g.queue) >= int(g.limit) {
		g.limit = math.Min(float64(g.cfg.MaxLimit), g.limit+1/g.limit)
	}
}

func (g *Gate) limitNow() int { return int(g.limit) }

// estWaitLocked estimates how long the pos-th queued request waits for a
// slot, from the latency EWMA. Zero until the gate has seen a completion.
func (g *Gate) estWaitLocked(pos int) time.Duration {
	if g.ewma <= 0 {
		return 0
	}
	return time.Duration(float64(g.ewma) * float64(pos) / math.Max(1, g.limit))
}

// waitHintLocked is the retry-after hint for queue-related sheds: the
// estimated time for the backlog to drain, clamped to stay useful.
func (g *Gate) waitHintLocked() time.Duration {
	hint := g.estWaitLocked(len(g.queue) + 1)
	if hint < g.cfg.RetryHint {
		hint = g.cfg.RetryHint
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return hint
}

// takeTokenLocked consumes one token from tenant's bucket. On refusal it
// returns the time until the next token (rate-refilled buckets) or the
// configured hint (manual-refill buckets).
func (g *Gate) takeTokenLocked(tenant uint32) (ok bool, hint time.Duration) {
	q := g.quotaFor(tenant)
	if q.unlimited() {
		return true, 0
	}
	b := g.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: q.Burst, last: g.clock.Now()}
		g.buckets[tenant] = b
	}
	if q.Rate > 0 {
		now := g.clock.Now()
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(q.Burst, b.tokens+q.Rate*dt)
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if q.Rate > 0 {
		return false, time.Duration((1 - b.tokens) / q.Rate * float64(time.Second))
	}
	return false, g.cfg.RetryHint
}

func (g *Gate) quotaFor(tenant uint32) Quota {
	if tenant == 0 {
		return g.cfg.Default
	}
	if q, ok := g.cfg.PerTenant[tenant]; ok {
		return q
	}
	return g.cfg.Tenant
}

// Refill refills every bucket to its burst capacity. The deterministic
// simulation harness calls this at script phase barriers in place of
// time-based refill, so shed decisions stay a pure function of each
// actor's operation sequence.
func (g *Gate) Refill() {
	now := g.clock.Now()
	g.mu.Lock()
	for t, b := range g.buckets {
		b.tokens = g.quotaFor(t).Burst
		b.last = now
	}
	g.mu.Unlock()
}

// SetBypass(true) turns the gate into a pass-through: every request is
// admitted (counted as bypassed) and quotas, limit, and queue are ignored.
// The simulation harness flips it on for post-run verification, so oracle
// reads are never shed on quotas the workload just exhausted.
func (g *Gate) SetBypass(on bool) { g.bypass.Store(on) }

// Stats snapshots the gate.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Admitted: g.admitted,
		Shed:     g.shed,
		Bypassed: g.bypassed,
		Queued:   len(g.queue),
		Inflight: g.inflight,
		Limit:    g.limitNow(),
	}
}
