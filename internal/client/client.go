// Package client is the Go client for immortald: a database/sql-flavored
// connection pool over the wire protocol.
//
//	db, _ := client.Open("localhost:7707", nil)
//	defer db.Close()
//	res, _ := db.Exec(ctx, `SELECT * FROM accounts WHERE id = 1`)
//	tx, _ := db.Begin(ctx)
//	tx.Exec(ctx, `UPDATE accounts SET balance = 90 WHERE id = 1`)
//	tx.Commit(ctx)
//
// Statements outside Begin auto-commit on a pooled connection. A Tx (or a
// Session) pins one connection, because the server keeps transaction state
// per connection.
//
// A pinned connection does not send a BEGIN on its own. It answers the BEGIN
// locally with the Result the server would return and sends it in the same
// frame as the next statement (wire.MsgExecBatch), so an AS OF read —
// BEGIN, SELECT, COMMIT — costs two round trips, not three. A BEGIN the
// server refuses (a replica's horizon, a shutdown drain, an overload shed)
// therefore surfaces as the error of that next statement, which the server
// then does not run. An overload shed runs nothing, so the BEGIN stays held
// and a retry of the statement carries it again. After any other refusal the
// BEGIN may have failed, so the transaction the caller believes open may not
// exist: every later statement but ROLLBACK fails with the same error until
// a ROLLBACK reaches the server.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/sqlish"
	"immortaldb/internal/wire"
)

// Options tune the pool. The zero value (or nil) uses the defaults below.
type Options struct {
	// MaxConns caps pooled connections (default 8). Exec blocks — honoring
	// its context — when all are busy.
	MaxConns int
	// DialTimeout bounds one dial attempt (default 5s).
	DialTimeout time.Duration
	// DialRetries is how many times a failed dial — or a statement refused
	// with a retryable server condition — is retried with jittered
	// exponential backoff (default 3; total attempts = DialRetries+1).
	DialRetries int
	// RetryBackoff is the first retry's base delay; later retries double it
	// (capped at 2s) and add jitter so a fleet of clients does not retry in
	// lockstep (default 50ms).
	RetryBackoff time.Duration
	// RetryBudget caps the total wall-clock time one operation may spend
	// across its attempt and all retries, enforced as a context deadline
	// (default 10s; a tighter caller deadline wins). It bounds worst-case
	// latency no matter how the retry schedule plays out. Always real time:
	// it is the caller's patience, not the network's.
	RetryBudget time.Duration
	// Dialer overrides how connections are made (default: TCP to the pool
	// address). The simulation harness injects its in-memory network here.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Timeline supplies the clock for connection deadlines and retry
	// backoff (default: the real clock). Under a virtual timeline, backoffs
	// and timeouts elapse in virtual time, so seeded scenarios replay the
	// same schedule wall-clock-fast.
	Timeline itime.Timeline
	// OpTimeout bounds one request/response round trip (default: none —
	// only the caller's context deadline applies). The tighter of it and
	// the context deadline wins. Measured on Timeline; it is what turns a
	// black-holed connection into a timely error in simulation.
	OpTimeout time.Duration
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxConns <= 0 {
		out.MaxConns = 8
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.DialRetries < 0 {
		out.DialRetries = 0
	} else if out.DialRetries == 0 {
		out.DialRetries = 3
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 50 * time.Millisecond
	}
	if out.RetryBudget <= 0 {
		out.RetryBudget = 10 * time.Second
	}
	if out.Timeline == nil {
		out.Timeline = itime.Real()
	}
	return out
}

// ErrPoolClosed reports use of a closed pool.
var ErrPoolClosed = errors.New("client: pool closed")

// ErrTxControl reports a BEGIN, COMMIT or ROLLBACK passed to DB.Exec. A
// pooled connection goes back to the pool after every statement, so a
// transaction opened there would capture whichever statements next borrow
// the connection.
var ErrTxControl = errors.New("client: BEGIN, COMMIT and ROLLBACK need a pinned connection; use DB.Begin or DB.Session")

// Transaction-control statements, recognised by their leading keyword.
func isBegin(kw string) bool { return strings.EqualFold(kw, "BEGIN") }

func endsTx(kw string) bool {
	return strings.EqualFold(kw, "COMMIT") || strings.EqualFold(kw, "ROLLBACK")
}

// RemoteError is a statement error reported by the server. The connection
// that carried it remains healthy and is returned to the pool. Code is the
// wire error code classifying the failure.
type RemoteError struct {
	Code byte
	Msg  string
	// Primary is the primary address a read-only replica advertised with a
	// CodeReadOnlyReplica refusal ("" when the replica does not know one).
	Primary string
	// RetryAfter is the backoff hint an overloaded server attached to a
	// CodeOverloaded shed (zero when it sent none): how long it expects to
	// stay busy. The pool honors it in place of exponential backoff.
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return e.Msg }

// Degraded reports that the server's engine is read-only-degraded after an
// I/O failure: writes will keep failing until an operator restarts it, so
// the client never retries these.
func (e *RemoteError) Degraded() bool { return e.Code == wire.CodeDegraded }

// Retryable reports a transient server condition (a shutdown drain): the
// statement may succeed after a backoff or on another connection.
func (e *RemoteError) Retryable() bool { return e.Code == wire.CodeRetryable }

// ReadOnlyReplica reports that the server is a read replica: the statement
// was a write and must be redirected to the primary. Retrying on the same
// server will fail the same way.
func (e *RemoteError) ReadOnlyReplica() bool { return e.Code == wire.CodeReadOnlyReplica }

// BeyondHorizon reports that an AS OF read asked a replica for a timestamp
// beyond its replication horizon: retryable on the same replica once it
// catches up, or immediately against the primary.
func (e *RemoteError) BeyondHorizon() bool { return e.Code == wire.CodeBeyondHorizon }

// Overloaded reports that the server shed the request (admission gate) or
// refused the connection (cap): retryable after RetryAfter.
func (e *RemoteError) Overloaded() bool { return e.Code == wire.CodeOverloaded }

// DB is a pooled client to one immortald server.
type DB struct {
	opts Options
	tl   itime.Timeline

	// slots is a counting semaphore over connection capacity; holders may
	// take an idle connection or dial a fresh one.
	slots chan struct{}

	mu     sync.Mutex
	addr   string
	idle   []*wconn
	closed bool
	// gen increments on Repoint; connections from an older generation were
	// dialed at the previous address and are discarded instead of pooled.
	gen uint64
}

// Open validates the address by dialing (with retry) and returns a pool.
func Open(addr string, opts *Options) (*DB, error) {
	d := &DB{addr: addr, opts: opts.withDefaults()}
	d.tl = d.opts.Timeline
	d.slots = make(chan struct{}, d.opts.MaxConns)
	for i := 0; i < d.opts.MaxConns; i++ {
		d.slots <- struct{}{}
	}
	// The retry budget bounds the opening dial like any other operation, so
	// hinted overload retries cannot stall Open past the caller's patience.
	ctx, cancel := d.withRetryBudget(context.Background())
	defer cancel()
	c, err := d.dial(ctx)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.idle = append(d.idle, c)
	d.mu.Unlock()
	return d, nil
}

// dial connects, with retry, and shakes hands. Plain dial failures back off
// with jittered exponential delays; a handshake refused CodeOverloaded — the
// connection cap — waits out the server's retry-after hint instead, so a
// momentarily full server costs one hint's worth of patience per attempt
// rather than the whole escalating backoff schedule.
func (d *DB) dial(ctx context.Context) (*wconn, error) {
	var lastErr error
	for attempt := 0; attempt <= d.opts.DialRetries; attempt++ {
		if attempt > 0 {
			if err := d.tl.Sleep(ctx, retryDelay(lastErr, d.opts.RetryBackoff, attempt-1)); err != nil {
				return nil, err
			}
		}
		addr, gen := d.target()
		nc, err := d.dialConn(ctx, addr)
		if err != nil {
			lastErr = err
			continue
		}
		c := &wconn{nc: nc, br: bufio.NewReader(nc), tl: d.tl, opTimeout: d.opts.OpTimeout, gen: gen}
		if err := c.handshake(ctx, d.opts.DialTimeout); err != nil {
			nc.Close()
			lastErr = err
			continue
		}
		return c, nil
	}
	addr, _ := d.target()
	return nil, fmt.Errorf("client: dial %s: %w", addr, lastErr)
}

// target reads the pool's current address and generation.
func (d *DB) target() (string, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr, d.gen
}

// Repoint re-targets the pool at a new server address — typically the
// primary a replica advertised in a write refusal, or the survivor of a
// failover. Idle connections to the old server are dropped, and in-flight
// connections are discarded when released rather than pooled.
func (d *DB) Repoint(addr string) {
	d.mu.Lock()
	if d.closed || d.addr == addr {
		d.mu.Unlock()
		return
	}
	d.addr = addr
	d.gen++
	idle := d.idle
	d.idle = nil
	d.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// Addr returns the pool's current target address.
func (d *DB) Addr() string {
	addr, _ := d.target()
	return addr
}

// dialConn makes one raw connection via the configured dialer.
func (d *DB) dialConn(ctx context.Context, addr string) (net.Conn, error) {
	if d.opts.Dialer != nil {
		return d.opts.Dialer(ctx, addr)
	}
	return (&net.Dialer{Timeout: d.opts.DialTimeout}).DialContext(ctx, "tcp", addr)
}

// jitterBackoff is the delay before retry attempt (0-based): exponential,
// capped at 2s, with full jitter over the upper half so a fleet of clients
// kicked off a draining server does not retry in lockstep.
func jitterBackoff(base time.Duration, attempt int) time.Duration {
	d := base << attempt
	if maxDelay := 2 * time.Second; d > maxDelay || d <= 0 {
		d = 2 * time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// acquire takes a capacity slot and returns a connection: an idle one if
// available (fromIdle true), freshly dialed otherwise.
func (d *DB) acquire(ctx context.Context) (c *wconn, fromIdle bool, err error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, false, ErrPoolClosed
	}
	select {
	case <-d.slots:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.slots <- struct{}{}
		return nil, false, ErrPoolClosed
	}
	if n := len(d.idle); n > 0 {
		c := d.idle[n-1]
		d.idle = d.idle[:n-1]
		d.mu.Unlock()
		return c, true, nil
	}
	d.mu.Unlock()
	c, err = d.dial(ctx)
	if err != nil {
		d.slots <- struct{}{}
		return nil, false, err
	}
	return c, false, nil
}

// release returns a connection to the pool, discarding broken ones and ones
// dialed at a pre-Repoint address.
func (d *DB) release(c *wconn, healthy bool) {
	d.mu.Lock()
	if healthy && !d.closed && c.gen == d.gen {
		d.idle = append(d.idle, c)
		c = nil
	}
	d.mu.Unlock()
	if c != nil {
		c.nc.Close()
	}
	d.slots <- struct{}{}
}

// Exec runs one auto-commit statement on a pooled connection. When an
// idle-pooled connection turns out stale — the server closed it while it
// sat in the pool — Exec transparently retries once on a freshly dialed
// connection. (Like database/sql's bad-connection retry, this can in
// principle re-execute a statement the server received just before dying;
// callers needing exactly-once must make statements idempotent.)
// Transaction-control statements are refused with ErrTxControl.
func (d *DB) Exec(ctx context.Context, sql string) (*sqlish.Result, error) {
	if kw := sqlish.LeadingKeyword(sql); isBegin(kw) || endsTx(kw) {
		return nil, ErrTxControl
	}
	ctx, cancel := d.withRetryBudget(ctx)
	defer cancel()
	c, fromIdle, err := d.acquire(ctx)
	if err != nil {
		return nil, err
	}
	res, err := c.exec(ctx, sql)
	if err != nil && fromIdle && c.broken && ctx.Err() == nil && !isRemote(err) {
		c.nc.Close()
		c2, derr := d.dial(ctx)
		if derr != nil {
			d.slots <- struct{}{}
			return nil, derr
		}
		c = c2
		res, err = c.exec(ctx, sql)
	}
	// Only errors the server tagged retryable — a drain in progress, or an
	// overload shed — are retried inside the retry budget: jittered
	// exponential backoff for drains, the server's retry-after hint for
	// sheds. Degraded and plain statement errors are terminal: retrying a
	// degraded server cannot succeed until an operator restarts it, and
	// hammering it with retries would only mask the page. When the retries
	// run out, the last typed error surfaces (*RemoteError, Overloaded for
	// sheds) so callers can tell backpressure from failure.
	for attempt := 0; err != nil && isRetryable(err) && attempt <= d.opts.DialRetries; attempt++ {
		if d.tl.Sleep(ctx, retryDelay(err, d.opts.RetryBackoff, attempt)) != nil {
			break
		}
		if c.broken {
			c.nc.Close()
			c2, derr := d.dial(ctx)
			if derr != nil {
				d.slots <- struct{}{}
				return nil, derr
			}
			c = c2
		}
		res, err = c.exec(ctx, sql)
	}
	// A write refused by a replica that advertised its primary is retried
	// exactly once there: the pool re-points (dropping idle connections to
	// the replica) and the statement re-runs on a fresh connection. One hop
	// only — if the "primary" also refuses, the refusal surfaces.
	if re := remoteErr(err); re != nil && re.ReadOnlyReplica() && re.Primary != "" && ctx.Err() == nil {
		d.Repoint(re.Primary)
		c.nc.Close()
		c.broken = true
		c2, derr := d.dial(ctx)
		if derr != nil {
			d.slots <- struct{}{}
			return nil, derr
		}
		c = c2
		res, err = c.exec(ctx, sql)
	}
	d.release(c, !c.broken)
	return res, err
}

func remoteErr(err error) *RemoteError {
	var re *RemoteError
	if errors.As(err, &re) {
		return re
	}
	return nil
}

func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

func isRetryable(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && (re.Retryable() || re.Overloaded())
}

// retryDelay picks the wait before one retry: the retry-after hint when the
// failure was an overload shed that carried one — the server knows how long
// it expects to stay busy — and jittered exponential backoff otherwise.
func retryDelay(err error, base time.Duration, attempt int) time.Duration {
	if re := remoteErr(err); re != nil && re.Overloaded() && re.RetryAfter > 0 {
		return re.RetryAfter
	}
	return jitterBackoff(base, attempt)
}

// withRetryBudget caps the total time an operation and its retries may take.
// A caller deadline tighter than the budget wins.
func (d *DB) withRetryBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d.opts.RetryBudget {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d.opts.RetryBudget)
}

// Ping checks server liveness over a pooled connection.
func (d *DB) Ping(ctx context.Context) error {
	c, _, err := d.acquire(ctx)
	if err != nil {
		return err
	}
	err = c.ping(ctx)
	d.release(c, !c.broken)
	return err
}

// Close closes idle connections and fails future calls. In-flight calls
// finish; their connections are discarded on release.
func (d *DB) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	idle := d.idle
	d.idle = nil
	d.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
	return nil
}

// Session pins one connection for free-form statement sequences (the REPL's
// remote mode). The caller must Close it to unpin the connection.
type Session struct {
	d    *DB
	c    *wconn
	done bool
	// held is a BEGIN answered locally and not yet sent; it rides in the
	// same frame as the next statement.
	held string
	// idle means the server session is known to hold no transaction, the one
	// state in which a BEGIN may be held: only then is the server's answer
	// to it foreseeable.
	idle bool
	// lost is the refusal of a held BEGIN's batch when the BEGIN may be what
	// failed. Until a ROLLBACK reaches the server, every other statement
	// fails with it instead of running outside the caller's transaction.
	lost error
}

// Session acquires a pinned connection.
func (d *DB) Session(ctx context.Context) (*Session, error) {
	c, _, err := d.acquire(ctx)
	if err != nil {
		return nil, err
	}
	// A pooled connection never carries a transaction: Tx pools one only
	// after a clean COMMIT or ROLLBACK, Session.Close never pools, and
	// DB.Exec refuses transaction control.
	return &Session{d: d, c: c, idle: true}, nil
}

// Exec runs one statement on the pinned connection. A BEGIN is answered
// locally and sent with the next statement (see the package comment); only
// a BEGIN the client can see would fail — it does not parse, or its AS OF
// time does not — goes alone, so its error comes back here.
func (s *Session) Exec(ctx context.Context, sql string) (*sqlish.Result, error) {
	if s.done {
		return nil, ErrPoolClosed
	}
	kw := sqlish.LeadingKeyword(sql)
	if s.lost != nil && !strings.EqualFold(kw, "ROLLBACK") {
		return nil, s.lost
	}
	if isBegin(kw) && s.idle {
		if res, ok := localBegin(sql); ok {
			s.held, s.idle = sql, false
			return res, nil
		}
	}
	var res *sqlish.Result
	var err error
	if s.held != "" {
		res, err = s.c.execBatch(ctx, s.held, sql)
		s.settleHeld(err)
	} else {
		res, err = s.c.exec(ctx, sql)
		if err == nil || isRemote(err) {
			s.lost = nil // a ROLLBACK reached the server
		}
	}
	if err == nil {
		switch {
		case isBegin(kw):
			s.idle = false
		case endsTx(kw):
			s.idle = true
		}
	}
	return res, err
}

// settleHeld decides, from the error of the batch that carried the held
// BEGIN, whether that BEGIN is still to be sent.
func (s *Session) settleHeld(err error) {
	re := remoteErr(err)
	switch {
	case err != nil && re == nil && !s.c.broken:
		// The context ended before the frame was written.
	case re != nil && re.Overloaded():
		// The gate shed the batch before running any of it.
	default:
		// The BEGIN was sent. After a failure the session stays not-idle, so
		// later BEGINs go eagerly. A refusal with a code the BEGIN itself can
		// fail with may be the BEGIN's, so the caller's transaction is lost.
		s.held = ""
		if re != nil && (re.Retryable() || re.BeyondHorizon() || re.Degraded()) {
			s.lost = err
		}
	}
}

// localBegin returns the Result the server answers a successful BEGIN with,
// or false when the statement would fail before reaching the engine.
func localBegin(sql string) (*sqlish.Result, bool) {
	st, err := sqlish.Parse(sql)
	if err != nil {
		return nil, false
	}
	b, ok := st.(sqlish.BeginTran)
	if !ok {
		return nil, false
	}
	if b.AsOf != "" {
		if _, err := itime.ParseAsOf(b.AsOf); err != nil {
			return nil, false
		}
	}
	return sqlish.BeginResult(b), true
}

// Close returns the pinned connection to the pool. An open server-side
// transaction is left to the server to roll back when the connection is
// reused — so Close discards the connection if a transaction may be open.
// A BEGIN still held is dropped unsent.
func (s *Session) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	// Discarding is always safe: the server rolls back on disconnect.
	s.d.release(s.c, false)
	return nil
}

// Tx is an explicit transaction pinned to one connection. Its BEGIN reaches
// the server with its first statement (or with Commit or Rollback), so that
// is where a server-side refusal of the BEGIN is reported. After an overload
// shed the statement may be retried: the BEGIN goes again with it. After a
// refusal the BEGIN could have caused — a drain, a replica's horizon, a
// degraded engine — later Exec and Commit calls fail with that same error,
// and Rollback, which still goes to the server, may report that no
// transaction is open.
type Tx struct {
	s *Session
}

// Begin opens a serializable transaction.
func (d *DB) Begin(ctx context.Context) (*Tx, error) {
	return d.begin(ctx, "BEGIN TRAN")
}

// BeginSnapshot opens a snapshot-isolation transaction.
func (d *DB) BeginSnapshot(ctx context.Context) (*Tx, error) {
	return d.begin(ctx, "BEGIN TRAN ISOLATION SNAPSHOT")
}

// BeginAsOf opens a read-only transaction over the database as of the given
// time literal (e.g. "2004-08-12 10:15:20"). A literal that does not parse
// fails here; a time past a replica's horizon fails the first Exec.
func (d *DB) BeginAsOf(ctx context.Context, at string) (*Tx, error) {
	return d.begin(ctx, fmt.Sprintf("BEGIN TRAN AS OF %q", at))
}

func (d *DB) begin(ctx context.Context, stmt string) (*Tx, error) {
	s, err := d.Session(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := s.Exec(ctx, stmt); err != nil {
		s.Close()
		return nil, err
	}
	return &Tx{s: s}, nil
}

// Exec runs one statement inside the transaction.
func (t *Tx) Exec(ctx context.Context, sql string) (*sqlish.Result, error) {
	return t.s.Exec(ctx, sql)
}

// Commit commits the transaction and unpins its connection. A nil error
// means the server acknowledged a durable commit.
func (t *Tx) Commit(ctx context.Context) error {
	_, err := t.s.Exec(ctx, "COMMIT")
	t.end(err == nil)
	return err
}

// Rollback aborts the transaction and unpins its connection.
func (t *Tx) Rollback(ctx context.Context) error {
	_, err := t.s.Exec(ctx, "ROLLBACK")
	t.end(err == nil)
	return err
}

// end releases the pinned connection. After a clean COMMIT/ROLLBACK the
// connection provably has no transaction state, so it can be pooled.
func (t *Tx) end(clean bool) {
	if t.s.done {
		return
	}
	t.s.done = true
	t.s.d.release(t.s.c, clean && !t.s.c.broken)
}

// wconn is one wire connection.
type wconn struct {
	nc        net.Conn
	br        *bufio.Reader
	tl        itime.Timeline
	opTimeout time.Duration
	// gen is the pool generation the connection was dialed under; see
	// DB.Repoint.
	gen uint64
	// broken marks the connection unusable (I/O error, protocol error).
	broken bool
}

func (c *wconn) handshake(ctx context.Context, timeout time.Duration) error {
	c.applyDeadline(ctx, timeout)
	// A server over its connection cap answers with a typed refusal and hangs
	// up without reading the hello, so the write can fail while the refusal
	// is already readable: read first, and report the write only if nothing
	// came.
	werr := wire.WriteFrame(c.nc, wire.MsgHello, wire.HelloPayload())
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		if werr != nil {
			return werr
		}
		return err
	}
	c.nc.SetDeadline(time.Time{})
	switch typ {
	case wire.MsgHelloOK:
		return nil
	case wire.MsgError:
		code, msg := wire.ParseError(payload)
		return newRemoteError(code, msg)
	default:
		return wire.ErrBadHandshake
	}
}

// newRemoteError builds a RemoteError, splitting out the redirect address a
// read-only replica embeds in its refusal and the retry-after hint an
// overloaded server embeds in its shed.
func newRemoteError(code byte, msg string) *RemoteError {
	re := &RemoteError{Code: code, Msg: msg}
	switch code {
	case wire.CodeReadOnlyReplica:
		re.Msg, re.Primary = wire.ParseRedirect(msg)
	case wire.CodeOverloaded:
		re.Msg, re.RetryAfter = wire.ParseOverload(msg)
	}
	return re
}

// applyDeadline sets the connection deadline to the tighter of the context
// deadline and opTimeout (zero opTimeout: context only; neither: none). A
// context deadline (real time) is translated onto the connection's timeline
// by its remaining duration, so it works unchanged over a virtual-time
// network.
func (c *wconn) applyDeadline(ctx context.Context, opTimeout time.Duration) {
	var dl time.Time
	if d, ok := ctx.Deadline(); ok {
		dl = c.tl.Now().Add(time.Until(d))
	}
	if opTimeout > 0 {
		if op := c.tl.Now().Add(opTimeout); dl.IsZero() || op.Before(dl) {
			dl = op
		}
	}
	c.nc.SetDeadline(dl) // the zero time clears the deadline
}

// exec runs one round trip. Context deadlines map to connection deadlines;
// a canceled/expired context surfaces as a timeout and marks the connection
// broken (the response would otherwise arrive during someone else's turn).
func (c *wconn) exec(ctx context.Context, sql string) (*sqlish.Result, error) {
	return c.execFrame(ctx, wire.MsgExec, []byte(sql))
}

// execBatch runs statements in order in one round trip; the result is the
// last statement's, the error the first failing statement's.
func (c *wconn) execBatch(ctx context.Context, stmts ...string) (*sqlish.Result, error) {
	return c.execFrame(ctx, wire.MsgExecBatch, wire.AppendExecBatch(nil, stmts...))
}

func (c *wconn) execFrame(ctx context.Context, typ byte, payload []byte) (*sqlish.Result, error) {
	resp, err := c.roundTrip(ctx, typ, payload, wire.MsgResult)
	if err != nil {
		return nil, err
	}
	res, err := sqlish.DecodeResult(resp)
	if err != nil {
		c.broken = true // a reply that does not decode is a protocol error
	}
	return res, err
}

func (c *wconn) ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, wire.MsgPing, nil, wire.MsgPong)
	return err
}

func (c *wconn) roundTrip(ctx context.Context, reqType byte, payload []byte, wantType byte) ([]byte, error) {
	if c.broken {
		return nil, errors.New("client: connection is broken")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.applyDeadline(ctx, c.opTimeout)
	if err := wire.WriteFrame(c.nc, reqType, payload); err != nil {
		c.broken = true
		return nil, err
	}
	typ, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		c.broken = true
		return nil, err
	}
	if typ == wire.MsgError {
		code, msg := wire.ParseError(resp)
		return nil, newRemoteError(code, msg)
	}
	if typ != wantType {
		c.broken = true
		return nil, fmt.Errorf("client: unexpected response type %#x", typ)
	}
	return resp, nil
}
