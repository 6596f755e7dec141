package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime/debug"
	"strings"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/obs"
	"immortaldb/internal/repl"
	"immortaldb/internal/sqlish"
	"immortaldb/internal/wire"
)

// conn is one client connection: a wire-protocol stream plus the sqlish
// session that owns its (at most one) open transaction.
type conn struct {
	srv  *Server
	nc   net.Conn
	sess *sqlish.Session
	// version is the protocol version agreed in the handshake; MsgExecBatch
	// needs 3.
	version byte
}

// wakeForDrain pokes a connection blocked in its idle read so the handler
// loop observes the drain. Safe concurrently with the handler: deadlines on
// a net.Conn may be set from any goroutine.
func (c *conn) wakeForDrain() {
	c.nc.SetReadDeadline(c.srv.now())
}

// serve runs the connection until EOF, error, idle timeout or shutdown. A
// panic anywhere in the handler — a parser bug, an engine invariant — kills
// only this connection: the session rolls back, the panic is logged, and
// the server keeps serving everyone else.
func (c *conn) serve() {
	defer c.srv.removeConn(c)
	defer func() {
		if r := recover(); r != nil {
			c.srv.panics.Add(1)
			c.srv.logf("server: connection panic: %v\n%s", r, debug.Stack())
		}
		if c.sess != nil {
			c.sess.Close() // rolls back any open transaction
		}
		c.nc.Close()
	}()

	br := bufio.NewReader(c.nc)
	replHello, ok := c.handshake(br)
	if !ok {
		return
	}
	if replHello != nil {
		// A replication handshake turns the connection over to the segment
		// shipper for its whole life; it never carries statements.
		if err := c.srv.shipper().ServeConn(c.nc, br, replHello, repl.ConnOpts{
			Now:            c.srv.now,
			IdleTimeout:    c.srv.cfg.IdleTimeout,
			RequestTimeout: c.srv.cfg.RequestTimeout,
			Draining:       c.srv.isDraining,
		}); err != nil && !errors.Is(err, io.EOF) {
			c.srv.logf("server: replication connection: %v", err)
		}
		return
	}
	c.sess = sqlish.NewSession(c.srv.db)

	for {
		if !c.armReadDeadline() {
			return
		}
		// Wait for the next request with Peek: it consumes nothing, so the
		// shutdown wake-up (a deadline poke) can interrupt this wait without
		// ever desynchronizing a frame that is mid-arrival.
		if _, err := br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if c.drainContinue() {
					continue
				}
			}
			return // EOF, idle timeout, drain, or broken pipe
		}
		// A request has started: its frame must arrive, and its response be
		// written, each within one request timeout. Execution in between is
		// bounded by the engine's lock timeout rather than preempted, so
		// every reply path arms its write deadline just before it writes.
		c.nc.SetReadDeadline(c.srv.now().Add(c.srv.cfg.RequestTimeout))
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		var werr error
		switch {
		case typ == wire.MsgPing:
			pingStart := obs.Now()
			c.armWriteDeadline()
			if werr = wire.WriteFrame(c.nc, wire.MsgPong, nil); werr == nil {
				obsPingLat.ObserveSince(pingStart)
			}
		case typ == wire.MsgExec:
			werr = c.exec([]string{string(payload)})
		case typ == wire.MsgExecBatch && c.version >= 3:
			stmts, perr := wire.ParseExecBatch(payload)
			if perr == nil && !beginAndOne(stmts) {
				perr = errBatchShape
			}
			if perr != nil {
				werr = c.replyError(perr)
				break
			}
			werr = c.exec(stmts)
		default:
			werr = c.replyError(errors.New("server: unknown message type"))
		}
		if werr != nil {
			return
		}
		// A drained connection hangs up once it is between transactions;
		// clients see a clean EOF instead of a mid-transaction abort.
		if c.srv.isDraining() && !c.sess.InTransaction() {
			return
		}
	}
}

var errBatchShape = errors.New("server: an exec batch must be a BEGIN and one statement")

// beginAndOne reports whether a batch has the one shape the server runs: a
// BEGIN and one statement. The statement runs only if the BEGIN opens a
// transaction, so it is inside one, where it would bypass the admission
// gate anyway; admitting the batch as its BEGIN then meters it exactly as
// two separate requests. Any longer batch could carry auto-commit
// statements past the gate on the first statement's tenant.
func beginAndOne(stmts []string) bool {
	return len(stmts) == 2 && strings.EqualFold(sqlish.LeadingKeyword(stmts[0]), "BEGIN")
}

// exec answers one MsgExec or MsgExecBatch request: it is admitted once,
// runs its statements in order on the session until one fails, and gets one
// reply — the last statement's result or the failing statement's error. It
// returns the reply's write error.
func (c *conn) exec(stmts []string) error {
	c.srv.requests.Add(1)
	// The admission gate runs before execution, judging the request by its
	// first statement. Requests from a session holding an open transaction
	// outrank new work (they bypass the gate entirely — stalling a lock
	// holder behind fresh arrivals would turn overload into deadlock), and
	// degradation beats overload: a degraded engine answers for itself with
	// the terminal CodeDegraded instead of a shed that lies "retry later".
	if g := c.srv.gate; g != nil && c.srv.db.Degraded() == nil {
		pri := admit.PriorityNew
		if c.sess.InTransaction() {
			pri = admit.PriorityTxn
		}
		release, aerr := g.Admit(context.Background(), admit.TenantFromStatement(stmts[0]), pri)
		if aerr != nil {
			return c.replyError(aerr)
		}
		defer release()
	}
	obsInflight.Inc()
	execStart := obs.Now()
	span := obs.NewRootSpan("server.exec")
	var res *sqlish.Result
	var err error
	for _, stmt := range stmts {
		if res, err = c.sess.Exec(stmt); err != nil {
			break
		}
	}
	span.End()
	// Decremented before the reply goes out: a client holding its reply must
	// never still count as in flight.
	obsInflight.Dec()
	if err != nil {
		werr := c.replyError(err)
		obsExecLat.ObserveSince(execStart)
		return werr
	}
	c.armWriteDeadline()
	werr := wire.WriteFrame(c.nc, wire.MsgResult, res.AppendBinary(nil))
	obsExecLat.ObserveSince(execStart)
	return werr
}

// armWriteDeadline bounds the reply about to be written by one request
// timeout.
func (c *conn) armWriteDeadline() {
	c.nc.SetWriteDeadline(c.srv.now().Add(c.srv.cfg.RequestTimeout))
}

// replyError counts and writes an error reply.
func (c *conn) replyError(err error) error {
	c.srv.errCount.Add(1)
	c.armWriteDeadline()
	return c.srv.writeError(c.nc, err)
}

// handshake validates the opening frame within one request timeout. A query
// hello is answered here and returns (nil, true); a replication hello is
// returned raw for the shipper to answer as (payload, true).
func (c *conn) handshake(br *bufio.Reader) ([]byte, bool) {
	c.nc.SetDeadline(c.srv.now().Add(c.srv.cfg.RequestTimeout))
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		return nil, false
	}
	if typ == wire.MsgReplHello {
		c.nc.SetDeadline(time.Time{})
		return payload, true
	}
	if typ != wire.MsgHello {
		return nil, false
	}
	if c.version, err = wire.CheckHello(payload); err != nil {
		c.srv.writeError(c.nc, err)
		return nil, false
	}
	if err := wire.WriteFrame(c.nc, wire.MsgHelloOK, []byte{c.version}); err != nil {
		return nil, false
	}
	c.nc.SetDeadline(time.Time{})
	return nil, true
}

// armReadDeadline sets the next request's read deadline: the idle timeout,
// clipped during a drain to the shutdown deadline. It returns false when
// the drain deadline has already passed and the connection must close.
func (c *conn) armReadDeadline() bool {
	deadline := c.srv.now().Add(c.srv.cfg.IdleTimeout)
	if c.srv.isDraining() {
		if !c.sess.InTransaction() {
			return false
		}
		until := time.Unix(0, c.srv.drainUntil.Load())
		if !until.After(c.srv.now()) {
			return false
		}
		if until.Before(deadline) {
			deadline = until
		}
	}
	c.nc.SetReadDeadline(deadline)
	return true
}

// drainContinue decides what a read timeout means: during a drain a
// connection with an open transaction keeps going (until the drain
// deadline); anything else — true idle timeout, drained and idle — closes.
func (c *conn) drainContinue() bool {
	if !c.srv.isDraining() || !c.sess.InTransaction() {
		return false
	}
	return time.Unix(0, c.srv.drainUntil.Load()).After(c.srv.now())
}

// writeError sends an error frame, classified so the client knows what a
// retry is worth: degradation is terminal until an operator intervenes,
// shutdown conditions are transient, a write refused by a replica must be
// redirected to the primary (the refusal carries the primary's address when
// the server knows it), an AS OF read past the replication horizon is
// retryable here once the horizon advances, and everything else is a
// statement error.
func (s *Server) writeError(w io.Writer, err error) error {
	code := wire.CodeGeneric
	msg := err.Error()
	switch {
	case errors.Is(err, immortaldb.ErrDegraded):
		code = wire.CodeDegraded
	case errors.Is(err, immortaldb.ErrShuttingDown),
		errors.Is(err, immortaldb.ErrClosed),
		errors.Is(err, immortaldb.ErrAborted):
		code = wire.CodeRetryable
	case errors.Is(err, immortaldb.ErrReplica):
		code = wire.CodeReadOnlyReplica
		msg = wire.RedirectMsg(msg, s.PrimaryAddr())
	case errors.Is(err, immortaldb.ErrBeyondHorizon):
		code = wire.CodeBeyondHorizon
	case errors.Is(err, admit.ErrOverloaded):
		code = wire.CodeOverloaded
		var oe *admit.OverloadError
		if errors.As(err, &oe) {
			msg = wire.OverloadMsg(msg, oe.RetryAfter)
		}
	}
	return wire.WriteFrame(w, wire.MsgError, wire.ErrorPayload(code, msg))
}
