// Package sim is the deterministic in-process simulation harness. It is to
// clocks and networks what vfs.SimFS is to disks: a seedable in-memory
// network whose Listener and Conn implement net.Listener and net.Conn — so
// internal/server and internal/client run over it unmodified — with
// scripted latency, black-hole drops, partitions and mid-frame connection
// kills, all drawn from per-connection rngs seeded by (net seed, dialer
// label, dial sequence) so a connection's fate never depends on how
// goroutines interleave. On top of it, a scenario runner (scenario.go)
// boots whole client/server clusters on one virtual timeline and records an
// event trace whose canonical hash is byte-identical across runs of the
// same seed.
package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"immortaldb/internal/itime"
)

// Errors. errTimeout satisfies net.Error with Timeout() == true, which is
// what the serving layer's deadline handling keys on.
var (
	// ErrRefused reports a dial that could not complete: no listener,
	// a partitioned address, a full accept backlog, or an injected refusal.
	ErrRefused = errors.New("sim: connection refused")
	errClosed  = errors.New("sim: use of closed connection")
	errReset   = errors.New("sim: connection reset by peer")
)

type timeoutError struct{}

func (timeoutError) Error() string   { return "sim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var errTimeout net.Error = timeoutError{}

// Mode classifies a scripted network fault.
type Mode string

// Fault modes.
const (
	// Refuse fails a dial outright.
	Refuse Mode = "refuse"
	// Drop black-holes the connection from the faulted write on: the bytes
	// (and every later write in either direction) silently vanish, so peers
	// block until their deadlines fire — a wedged, half-dead link.
	Drop Mode = "drop"
	// Kill cuts the connection mid-frame: the first KeepBytes of the
	// faulted write are delivered, the rest never arrive, and both ends see
	// a reset after draining what was delivered.
	Kill Mode = "kill"
	// Delay adds Extra one-way latency to the faulted write.
	Delay Mode = "delay"
)

// Fault is one scripted network fault, mirroring vfs.Fault but addressed in
// per-connection coordinates — the dialer's label, the connection's ordinal
// among that dialer's dials, and the operation index within the connection
// (the dial is op 1, every write in either direction one op) — so a
// schedule replays exactly regardless of goroutine interleaving.
type Fault struct {
	// Dialer, when non-empty, restricts the fault to connections whose
	// dialer label contains it as a substring.
	Dialer string
	// Addr, when non-empty, restricts the fault to dials whose target
	// address contains it as a substring.
	Addr string
	// ConnSeq, when non-zero, matches only the n-th (1-based) connection
	// the dialer makes.
	ConnSeq int64
	// Op selects the operation kind: "dial", "write", or "any"/"".
	Op string
	// StartOp is the 1-based per-connection operation index at which the
	// fault becomes active (0: immediately).
	StartOp int64
	// Count is how many matching operations are faulted before the fault
	// clears; negative means it never clears.
	Count int64
	// Mode is what happens to a matching operation.
	Mode Mode
	// KeepBytes (Kill) is how many bytes of the faulted write are
	// delivered before the cut; it is clamped below the write size so a
	// killed frame is always truncated.
	KeepBytes int64
	// Extra (Delay) is the added one-way latency.
	Extra time.Duration
}

func (f *Fault) matches(op string, p *pair, connOp int64) bool {
	if f.Count == 0 {
		return false // exhausted
	}
	if f.Op != "" && f.Op != "any" && f.Op != op {
		return false
	}
	if f.Dialer != "" && !strings.Contains(p.label, f.Dialer) {
		return false
	}
	if f.Addr != "" && !strings.Contains(p.addr, f.Addr) {
		return false
	}
	if f.ConnSeq != 0 && f.ConnSeq != p.connSeq {
		return false
	}
	if f.StartOp > 0 && connOp < f.StartOp {
		return false
	}
	return true
}

// Profile is the probabilistic chaos profile: every connection draws its
// fate from its own rng, so with a fixed net seed the same dial always
// meets the same fate. A zero Profile is a perfect network.
type Profile struct {
	// Latency is the base one-way delivery delay per write; Jitter adds a
	// uniform random extra drawn per write.
	Latency, Jitter time.Duration
	// RefuseProb is the probability a dial is refused.
	RefuseProb float64
	// KillProb is the per-write probability the connection is killed
	// mid-frame (a random prefix of the write is delivered first).
	KillProb float64
	// DropProb is the per-write probability the connection black-holes
	// from this write on.
	DropProb float64
}

// Net is one simulated network universe. All listeners, dials and
// connections within it share one seed and one timeline; latency and
// deadlines are virtual when the timeline is an itime.SimClock.
type Net struct {
	tl   itime.Timeline
	seed int64

	mu          sync.Mutex
	listeners   map[string]*listener
	dialSeq     map[string]int64
	partitioned map[string]struct{}
	pairs       map[*pair]struct{}
	profile     Profile
	faults      []*Fault
	rec         func(actor, detail string)
}

// NewNet returns an empty network on tl, seeded with seed.
func NewNet(tl itime.Timeline, seed int64) *Net {
	if tl == nil {
		tl = itime.Real()
	}
	return &Net{
		tl:          tl,
		seed:        seed,
		listeners:   make(map[string]*listener),
		dialSeq:     make(map[string]int64),
		partitioned: make(map[string]struct{}),
		pairs:       make(map[*pair]struct{}),
	}
}

// Timeline returns the timeline the network runs on.
func (n *Net) Timeline() itime.Timeline { return n.tl }

// SetProfile installs the chaos profile for connections dialed from now on;
// existing connections keep the profile they were dialed under (their fate
// stays a function of their dial coordinates alone).
func (n *Net) SetProfile(p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.profile = p
}

// InjectFault arms one scripted fault. Multiple faults may be armed; the
// first match (in injection order) applies.
func (n *Net) InjectFault(f Fault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cp := f
	n.faults = append(n.faults, &cp)
}

// ClearFaults disarms all scripted faults.
func (n *Net) ClearFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = nil
}

// SetRecorder installs a hook receiving one line per injected fault and
// partition transition, keyed by a deterministic per-connection actor.
func (n *Net) SetRecorder(rec func(actor, detail string)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rec = rec
}

func (n *Net) record(actor, detail string) {
	n.mu.Lock()
	rec := n.rec
	n.mu.Unlock()
	if rec != nil {
		rec(actor, detail)
	}
}

// Partition isolates addr: every live connection to it is killed and every
// new dial refused until Heal. It models a network partition as seen from
// the clients of that address.
func (n *Net) Partition(addr string) {
	n.mu.Lock()
	n.partitioned[addr] = struct{}{}
	var victims []*pair
	for p := range n.pairs {
		if p.addr == addr {
			victims = append(victims, p)
		}
	}
	n.mu.Unlock()
	for _, p := range victims {
		p.kill()
	}
	n.record("net", "partition "+addr)
}

// Heal reconnects addr after a Partition.
func (n *Net) Heal(addr string) {
	n.mu.Lock()
	delete(n.partitioned, addr)
	n.mu.Unlock()
	n.record("net", "heal "+addr)
}

// matchFault finds and consumes the first scripted fault matching the
// operation. Callers may hold the pair's mutex; this takes only n.mu.
func (n *Net) matchFault(op string, p *pair, connOp int64) *Fault {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, f := range n.faults {
		if !f.matches(op, p, connOp) {
			continue
		}
		if f.Count > 0 {
			f.Count--
		}
		cp := *f
		return &cp
	}
	return nil
}

// Listen opens a listener on addr (any non-empty string; by convention
// "host:port"). One listener per address.
func (n *Net) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, errors.New("sim: empty listen address")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("sim: address %s already in use", addr)
	}
	l := &listener{
		n:    n,
		addr: simAddr(addr),
		ch:   make(chan *Conn, 128),
		done: make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dialer returns a dial function bound to a stable label. The label, with
// the dialer's per-label dial counter, addresses the per-connection fault
// plan — give every logical client its own label and its connections'
// fates replay exactly from the net seed.
func (n *Net) Dialer(label string) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return n.dial(label, addr)
	}
}

func (n *Net) dial(label, addr string) (net.Conn, error) {
	n.mu.Lock()
	n.dialSeq[label]++
	seq := n.dialSeq[label]
	prof := n.profile
	lis := n.listeners[addr]
	_, parted := n.partitioned[addr]
	n.mu.Unlock()

	key := fmt.Sprintf("%s#%d>%s", label, seq, addr)
	p := &pair{
		n:       n,
		label:   label,
		addr:    addr,
		connSeq: seq,
		key:     key,
		profile: prof,
		rng:     rand.New(rand.NewSource(planSeed(n.seed, key))),
		ops:     1, // the dial itself
	}
	if f := n.matchFault("dial", p, 1); f != nil && f.Mode == Refuse {
		p.event("refuse dial")
		return nil, fmt.Errorf("sim: dial %s: %w", addr, ErrRefused)
	}
	if parted {
		p.event("refuse dial (partition)")
		return nil, fmt.Errorf("sim: dial %s: %w", addr, ErrRefused)
	}
	if lis == nil {
		return nil, fmt.Errorf("sim: dial %s: %w", addr, ErrRefused)
	}
	if prof.RefuseProb > 0 && p.rng.Float64() < prof.RefuseProb {
		p.event("refuse dial")
		return nil, fmt.Errorf("sim: dial %s: %w", addr, ErrRefused)
	}

	cli := &Conn{p: p, local: simAddr(key), remote: simAddr(addr)}
	srv := &Conn{p: p, local: simAddr(addr), remote: simAddr(key)}
	cli.cond = sync.NewCond(&cli.mu)
	srv.cond = sync.NewCond(&srv.mu)
	cli.peer, srv.peer = srv, cli
	p.cli, p.srv = cli, srv

	n.mu.Lock()
	n.pairs[p] = struct{}{}
	n.mu.Unlock()

	select {
	case lis.ch <- srv:
		return cli, nil
	default:
		n.forget(p)
		return nil, fmt.Errorf("sim: dial %s: backlog full: %w", addr, ErrRefused)
	}
}

func (n *Net) forget(p *pair) {
	n.mu.Lock()
	delete(n.pairs, p)
	n.mu.Unlock()
}

// planSeed folds a connection key into the net seed.
func planSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return seed ^ int64(h.Sum64())
}

// simAddr is a net.Addr on the simulated network.
type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// listener implements net.Listener.
type listener struct {
	n    *Net
	addr simAddr
	ch   chan *Conn
	done chan struct{}
	once sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("sim: listener %s: %w", l.addr, errClosed)
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.n.mu.Lock()
		if l.n.listeners[string(l.addr)] == l {
			delete(l.n.listeners, string(l.addr))
		}
		l.n.mu.Unlock()
	})
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// action is what a write's fault plan decided.
type action int

const (
	actDeliver action = iota
	actDrop
	actKill
)

// pair is the shared state of one connection's two endpoints: the seeded
// fault plan, the per-connection operation counter, and the chaos profile
// snapshot it was dialed under. The wire protocol's strict request/response
// alternation makes the operation order on a pair deterministic, which is
// what lets per-write rng draws replay exactly.
type pair struct {
	n       *Net
	label   string
	addr    string
	connSeq int64
	key     string
	profile Profile

	mu         sync.Mutex
	rng        *rand.Rand
	ops        int64
	blackholed bool

	cli, srv *Conn
}

func (p *pair) event(detail string) {
	p.n.record(p.key, detail)
}

// kill resets both endpoints. Bytes already delivered (or in flight) are
// still readable first, as with a real RST racing buffered data.
func (p *pair) kill() {
	for _, c := range [2]*Conn{p.cli, p.srv} {
		if c == nil {
			continue
		}
		c.mu.Lock()
		c.killed = true
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	p.n.forget(p)
}

// writeFault numbers one write and decides its fate.
func (p *pair) writeFault(size int64) (act action, keep int64, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	op := p.ops
	if p.blackholed {
		return actDrop, 0, 0
	}
	if f := p.n.matchFault("write", p, op); f != nil {
		switch f.Mode {
		case Drop:
			p.blackholed = true
			p.event(fmt.Sprintf("drop w%d", op))
			return actDrop, 0, 0
		case Kill:
			keep = f.KeepBytes
			if keep >= size {
				keep = size - 1
			}
			if keep < 0 {
				keep = 0
			}
			p.event(fmt.Sprintf("kill w%d keep=%d", op, keep))
			return actKill, keep, p.delayLocked()
		case Delay:
			p.event(fmt.Sprintf("delay w%d", op))
			return actDeliver, 0, p.delayLocked() + f.Extra
		}
	}
	if p.profile.KillProb > 0 || p.profile.DropProb > 0 {
		r := p.rng.Float64()
		switch {
		case r < p.profile.KillProb:
			keep = p.rng.Int63n(size) // size >= 1: frames have a header
			p.event(fmt.Sprintf("kill w%d keep=%d", op, keep))
			return actKill, keep, p.delayLocked()
		case r < p.profile.KillProb+p.profile.DropProb:
			p.blackholed = true
			p.event(fmt.Sprintf("drop w%d", op))
			return actDrop, 0, 0
		}
	}
	return actDeliver, 0, p.delayLocked()
}

// delayLocked draws this write's one-way latency. Caller holds p.mu.
func (p *pair) delayLocked() time.Duration {
	lat := p.profile.Latency
	if p.profile.Jitter > 0 {
		lat += time.Duration(p.rng.Int63n(int64(p.profile.Jitter)))
	}
	return lat
}

// Conn is one endpoint of a simulated connection. It implements net.Conn;
// deadlines are interpreted on the network's timeline, so with a
// SimClock an idle timeout fires in virtual time.
type Conn struct {
	p      *pair
	peer   *Conn
	local  net.Addr
	remote net.Addr

	mu         sync.Mutex
	cond       *sync.Cond
	buf        []byte
	inflight   int   // latency-delayed deliveries headed my way
	nextArrive int64 // virtual nanos the latest in-flight delivery lands (FIFO chain)
	closed     bool
	peerClosed bool
	killed     bool
	rd, wd     int64 // deadlines in timeline nanos; 0 = none
	rdTimer    itime.Timer
}

func (c *Conn) LocalAddr() net.Addr  { return c.local }
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.buf) > 0 {
			n := copy(p, c.buf)
			c.buf = c.buf[n:]
			return n, nil
		}
		if c.closed {
			return 0, errClosed
		}
		// In-flight bytes still count as "on the wire": a reset or FIN
		// ordered after them must let them arrive first, or a mid-frame
		// kill's delivered prefix would be lost to interleaving.
		if c.inflight == 0 {
			if c.killed {
				return 0, errReset
			}
			if c.peerClosed {
				return 0, io.EOF
			}
		}
		if c.rd != 0 && c.p.n.tl.Now().UnixNano() >= c.rd {
			return 0, errTimeout
		}
		c.cond.Wait()
	}
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errClosed
	}
	if c.killed || c.peerClosed {
		c.mu.Unlock()
		return 0, errReset
	}
	if c.wd != 0 && c.p.n.tl.Now().UnixNano() >= c.wd {
		c.mu.Unlock()
		return 0, errTimeout
	}
	c.mu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}

	act, keep, delay := c.p.writeFault(int64(len(p)))
	switch act {
	case actDrop:
		// The bytes vanish; the "kernel" accepted them, so the write
		// itself succeeds — exactly how a black-holed TCP send looks.
		return len(p), nil
	case actKill:
		c.deliver(p[:keep], delay)
		c.p.kill()
		return len(p), nil
	}
	c.deliver(p, delay)
	return len(p), nil
}

// deliver hands bytes to the peer, after delay on the timeline. Deliveries
// per direction form a FIFO chain: a later write never lands before an
// earlier one, whatever their jitter.
func (c *Conn) deliver(p []byte, delay time.Duration) {
	if len(p) == 0 {
		return
	}
	peer := c.peer
	if delay <= 0 {
		peer.mu.Lock()
		if peer.inflight == 0 {
			peer.buf = append(peer.buf, p...)
			peer.cond.Broadcast()
			peer.mu.Unlock()
			return
		}
		// Older deliveries are still in flight; join the chain at the back
		// to keep FIFO.
		peer.mu.Unlock()
	}
	data := append([]byte(nil), p...)
	now := c.p.n.tl.Now().UnixNano()
	peer.mu.Lock()
	at := now + int64(delay)
	if at < peer.nextArrive {
		at = peer.nextArrive
	}
	peer.nextArrive = at
	peer.inflight++
	peer.mu.Unlock()
	c.p.n.tl.AfterFunc(time.Duration(at-now)+time.Nanosecond, func() {
		peer.mu.Lock()
		peer.inflight--
		peer.buf = append(peer.buf, data...)
		peer.cond.Broadcast()
		peer.mu.Unlock()
	})
}

func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	peer := c.peer
	peer.mu.Lock()
	peer.peerClosed = true
	peer.cond.Broadcast()
	bothDown := peer.closed
	peer.mu.Unlock()
	if bothDown {
		c.p.n.forget(c.p)
	}
	return nil
}

func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	if t.IsZero() {
		c.rd = 0
		c.mu.Unlock()
		return nil
	}
	nanos := t.UnixNano()
	c.rd = nanos
	d := time.Duration(nanos - c.p.n.tl.Now().UnixNano())
	if d <= 0 {
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil
	}
	// Arm a wake-up for when the timeline passes the deadline. The timer
	// may outlive a replaced deadline; Read re-checks rd against the clock,
	// so a stale broadcast is harmless.
	c.rdTimer = c.p.n.tl.AfterFunc(d, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.mu.Unlock()
	return nil
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.IsZero() {
		c.wd = 0
	} else {
		c.wd = t.UnixNano()
	}
	return nil
}
