// Package server is immortald's network serving layer: a TCP server
// speaking the wire protocol, with one sqlish session — and therefore at
// most one open transaction — per connection.
//
// The server enforces a connection cap, idle timeouts, and per-request I/O
// deadlines; isolates connection-handler panics; and shuts down gracefully:
// draining connections finish their in-flight request, connections holding
// an open transaction get until the shutdown deadline to commit or roll
// back, and everything left is force-closed (sessions roll their
// transactions back on the way out). An acknowledged commit is never lost:
// the engine hardens the commit record before the session returns, which is
// before the acknowledgement frame is written.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/repl"
	"immortaldb/internal/wire"
)

// Observability: request-path latency per verb and the in-flight gauge.
// Exec latency covers statement execution plus the response write — what a
// client actually waits for after the frame lands. Connection counts are
// per server (Stats).
var (
	obsExecLat  = obs.NewHistogram("immortald_exec_seconds", "Latency of one exec request: statement execution plus response write.", obs.LatencyBuckets)
	obsPingLat  = obs.NewHistogram("immortald_ping_seconds", "Latency of one ping round trip (server side).", obs.LatencyBuckets)
	obsInflight = obs.NewGauge("immortald_inflight_requests", "Requests currently executing across all connections.")
)

// Config tunes the server. The zero value serves with the defaults below.
type Config struct {
	// MaxConns caps concurrent connections (default 128). Connections over
	// the cap are refused with an error frame.
	MaxConns int
	// IdleTimeout closes a connection that sends no request for this long
	// (default 5m).
	IdleTimeout time.Duration
	// RequestTimeout bounds the network I/O of a single request/response
	// exchange — reading the request body, writing the response (default
	// 30s). Statement execution itself is bounded by the engine's lock
	// timeout, not preempted mid-flight.
	RequestTimeout time.Duration
	// Logf, when set, receives server diagnostics (accept errors, panics).
	Logf func(format string, args ...any)
	// Clock is the timeline idle and request deadlines and the drain window
	// are measured on (default: the real clock). The simulation harness
	// injects a virtual timeline here so whole scenarios run
	// wall-clock-fast. With a non-real Clock, Shutdown contexts should
	// carry no deadline (a real-time context deadline cannot be compared
	// against virtual time); bound the drain with the context's cancel.
	Clock itime.Timeline
	// Admission, when set, puts an admission gate in front of the Exec
	// path: per-tenant quotas, an adaptive concurrency limit, and bounded
	// deadline-aware queueing (see internal/admit). Nil serves ungated.
	// The gate inherits Clock unless Admission.Clock is set.
	Admission *admit.Config
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 128
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = itime.Real()
	}
	return c
}

// Stats is a snapshot of server counters for /metrics.
type Stats struct {
	// Accepted counts connections admitted; Refused those turned away over
	// the connection cap.
	Accepted, Refused uint64
	// ActiveConns is the number of connections currently open.
	ActiveConns int64
	// Requests counts exec requests — one per MsgExec or MsgExecBatch frame,
	// however many statements it carries; Errors requests answered with an
	// error frame; Panics connection handlers killed by a panic.
	Requests, Errors, Panics uint64
	// Admitted and Shed mirror the admission gate's counters (zero when the
	// server runs ungated).
	Admitted, Shed uint64
	// Draining reports an in-progress graceful shutdown.
	Draining bool
}

// Server serves one database over one listener.
type Server struct {
	db  *immortaldb.DB
	cfg Config

	mu       sync.Mutex
	lis      net.Listener
	conns    map[*conn]struct{}
	draining bool
	closed   bool
	// drainUntil is the graceful-shutdown deadline (UnixNano); connections
	// holding an open transaction may keep serving requests until then.
	drainUntil atomic.Int64

	wg sync.WaitGroup // connection handlers

	// ship serves replication connections (created on first use; one per
	// server so follower horizon acks aggregate into one lag gauge).
	shipOnce sync.Once
	ship     *repl.Shipper

	accepted, refused  atomic.Uint64
	requests, errCount atomic.Uint64
	panics             atomic.Uint64
	active             atomic.Int64

	// primaryAddr is the cluster's current primary address, advertised in
	// CodeReadOnlyReplica refusals so they double as redirects. Empty when
	// unknown or when this server is itself the primary.
	primaryAddr atomic.Value // string

	// gate is the admission gate, nil when Config.Admission is nil.
	gate *admit.Gate
}

// New returns a server over db.
func New(db *immortaldb.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		cfg:   cfg,
		conns: make(map[*conn]struct{}),
	}
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if ac.Clock == nil {
			ac.Clock = cfg.Clock
		}
		s.gate = admit.New(ac)
	}
	return s
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// errBusy is sent to connections refused over the cap.
var errBusy = errors.New("server: connection limit reached")

// Listen starts listening on addr (e.g. ":7707" or "127.0.0.1:0") and
// returns the bound address. Serve must be called next.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		lis.Close()
		return nil, ErrServerClosed
	}
	s.lis = lis
	s.mu.Unlock()
	return lis.Addr(), nil
}

// ListenOn serves on an already-created listener — the simulation harness's
// in-memory network, or a caller-managed socket. Serve must be called next.
func (s *Server) ListenOn(lis net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		lis.Close()
		return ErrServerClosed
	}
	if s.lis != nil {
		return errors.New("server: already listening")
	}
	s.lis = lis
	return nil
}

// now reads the server's clock.
func (s *Server) now() time.Time { return s.cfg.Clock.Now() }

// Addr returns the listener's address, nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections until Shutdown or Close. It always returns a
// non-nil error; after a graceful shutdown that error is ErrServerClosed.
func (s *Server) Serve() error {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if s.active.Load() >= int64(s.cfg.MaxConns) {
			s.refused.Add(1)
			s.refuse(nc)
			continue
		}
		c := &conn{srv: s, nc: nc}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			s.refuse(nc)
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go c.serve()
	}
}

// connRetryAfter is the retry-after hint attached to connection-cap
// refusals: long enough for a slot to open under churn, short enough that a
// waiting client notices promptly.
const connRetryAfter = 100 * time.Millisecond

// refuse best-effort sends an error frame and closes the connection. The
// refusal is a retryable CodeOverloaded with a retry-after hint — a full
// connection table is a moment, not a verdict, and a cooperative client
// should wait it out instead of burning its dial budget rediscovering it.
func (s *Server) refuse(nc net.Conn) {
	nc.SetDeadline(s.now().Add(s.cfg.RequestTimeout))
	msg := wire.OverloadMsg(errBusy.Error(), connRetryAfter)
	wire.WriteFrame(nc, wire.MsgError, wire.ErrorPayload(wire.CodeOverloaded, msg))
	nc.Close()
}

// Shutdown gracefully stops the server: the listener closes, idle
// connections without an open transaction close immediately, connections
// mid-request finish and are answered, and connections holding an open
// transaction may keep issuing statements until ctx expires — enough to
// COMMIT or ROLLBACK. When ctx expires, survivors are force-closed and
// their sessions roll back. Shutdown does not close the database.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	until := s.now().Add(24 * time.Hour)
	if d, ok := ctx.Deadline(); ok {
		until = d
	}
	s.drainUntil.Store(until.UnixNano())
	if s.lis != nil {
		s.lis.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	// Wake connections blocked in Read so they observe the drain. A
	// connection mid-request is not disturbed: the deadline poke only
	// affects the blocked idle read, and the handler re-arms deadlines
	// before every exchange.
	for _, c := range conns {
		c.wakeForDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close() // handler sees the error, rolls back, exits
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

// Close force-stops the server without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	if s.lis != nil {
		s.lis.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := Stats{
		Accepted:    s.accepted.Load(),
		Refused:     s.refused.Load(),
		ActiveConns: s.active.Load(),
		Requests:    s.requests.Load(),
		Errors:      s.errCount.Load(),
		Panics:      s.panics.Load(),
		Draining:    draining,
	}
	if s.gate != nil {
		gs := s.gate.Stats()
		st.Admitted, st.Shed = gs.Admitted, gs.Shed
	}
	return st
}

// Gate exposes the admission gate, nil when the server runs ungated. The
// simulation harness uses it to refill quota buckets at deterministic phase
// barriers; /healthz reads its Stats.
func (s *Server) Gate() *admit.Gate { return s.gate }

// DB exposes the served database (metrics endpoints read its Stats).
func (s *Server) DB() *immortaldb.DB { return s.db }

// SetPrimaryAddr records the cluster's current primary address. A replica
// server embeds it in every write refusal so clients re-resolve without an
// external directory; set it to "" (or to this server's own address) after a
// promotion makes this server the primary.
func (s *Server) SetPrimaryAddr(addr string) { s.primaryAddr.Store(addr) }

// PrimaryAddr returns the advertised primary address, "" when unset.
func (s *Server) PrimaryAddr() string {
	if v := s.primaryAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// shipper lazily creates the replication shipper.
func (s *Server) shipper() *repl.Shipper {
	s.shipOnce.Do(func() { s.ship = repl.NewShipper(s.db) })
	return s.ship
}

// Shipper exposes the replication shipper's stats (nil-safe: creates it).
func (s *Server) Shipper() *repl.Shipper { return s.shipper() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.active.Add(-1)
	s.wg.Done()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
