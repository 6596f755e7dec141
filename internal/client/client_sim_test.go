// Simulation-backed client tests: the flaky-prone wall-clock cases from
// client_test.go converted to virtual time over the in-memory network, plus
// retry-policy coverage against scripted server responses. External test
// package, because internal/sim imports internal/client.
package client_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"immortaldb"
	"immortaldb/internal/client"
	"immortaldb/internal/itime"
	"immortaldb/internal/server"
	"immortaldb/internal/sim"
	"immortaldb/internal/wire"
)

// simCluster boots one real server over the simulated network on a virtual
// timeline.
func simCluster(t *testing.T, cfg server.Config) (*sim.Net, *itime.SimTimeline, *server.Server, string) {
	t.Helper()
	tl := itime.NewSimTimeline(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	n := sim.NewNet(tl, 1)
	db, err := immortaldb.Open(t.TempDir(), &immortaldb.Options{NoSync: true, Clock: tl})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clock = tl
	srv := server.New(db, cfg)
	const addr = "srv:7707"
	lis, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenOn(lis); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return n, tl, srv, addr
}

// TestStaleIdleConnRetrySim is the virtual-time version of the stale-pooled-
// connection scenario: the server's idle timeout reaps the pooled connection
// at a deterministic virtual instant — no wall-clock sleep race — and the
// next Exec must transparently retry on a fresh dial.
func TestStaleIdleConnRetrySim(t *testing.T) {
	n, tl, srv, addr := simCluster(t, server.Config{IdleTimeout: time.Minute})
	d, err := client.Open(addr, &client.Options{
		MaxConns: 1, Dialer: n.Dialer("cli"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if _, err := d.Exec(ctx, "CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}

	// Push virtual time past the idle timeout and wait for the server to
	// reap the pooled connection. The advance repeats: the server may arm its
	// idle deadline only after the client already holds the reply, and a
	// deadline armed after a single advance would never come due.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveConns != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never reaped the idle connection")
		}
		tl.Advance(5 * time.Minute)
		time.Sleep(time.Millisecond)
	}

	if _, err := d.Exec(ctx, "SELECT * FROM t"); err != nil {
		t.Fatalf("Exec on stale pooled conn: %v", err)
	}
	if got := srv.Stats().Accepted; got != 2 {
		t.Fatalf("accepted %d connections, want 2 (one reaped, one redialed)", got)
	}
}

// TestDialRetryBackoffSim: the server appears only after the client's first
// dial attempts were refused; the backoff runs in virtual time, so the test
// involves no wall-clock tuning.
func TestDialRetryBackoffSim(t *testing.T) {
	tl := itime.NewSimTimeline(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()
	n := sim.NewNet(tl, 1)
	const addr = "srv:7707"

	type opened struct {
		d   *client.DB
		err error
	}
	ch := make(chan opened, 1)
	go func() {
		d, err := client.Open(addr, &client.Options{
			DialRetries: 100, RetryBackoff: 10 * time.Millisecond,
			Dialer: n.Dialer("cli"), Timeline: tl,
		})
		ch <- opened{d, err}
	}()

	// Let several (virtual-time) attempts fail before the listener exists.
	time.Sleep(20 * time.Millisecond)
	db, err := immortaldb.Open(t.TempDir(), &immortaldb.Options{NoSync: true, Clock: tl})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{Clock: tl})
	lis, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenOn(lis); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	got := <-ch
	if got.err != nil {
		t.Fatalf("Open with retry: %v", got.err)
	}
	defer got.d.Close()
	if err := got.d.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// stubServer speaks just enough wire protocol to answer every Exec with a
// scripted error frame, counting what it sees. Set msg before any client
// dials to script the error string (redirects, overload hints); it defaults
// to "stub says no".
type stubServer struct {
	lis      net.Listener
	code     byte
	msg      string
	accepted chan struct{}
	execs    chan struct{}
}

func startStubServer(t *testing.T, n *sim.Net, addr string, code byte) *stubServer {
	t.Helper()
	lis, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{lis: lis, code: code, accepted: make(chan struct{}, 64), execs: make(chan struct{}, 64)}
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			s.accepted <- struct{}{}
			go s.serve(nc)
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return s
}

func (s *stubServer) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.MsgHello {
		return
	}
	if _, err := wire.CheckHello(payload); err != nil {
		return
	}
	if err := wire.WriteFrame(nc, wire.MsgHelloOK, []byte{wire.Version}); err != nil {
		return
	}
	for {
		typ, _, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgExec:
			s.execs <- struct{}{}
			msg := s.msg
			if msg == "" {
				msg = "stub says no"
			}
			if err := wire.WriteFrame(nc, wire.MsgError, wire.ErrorPayload(s.code, msg)); err != nil {
				return
			}
		case wire.MsgPing:
			if err := wire.WriteFrame(nc, wire.MsgPong, nil); err != nil {
				return
			}
		default:
			return
		}
	}
}

func drain(ch chan struct{}) int {
	n := 0
	for {
		select {
		case <-ch:
			n++
		default:
			return n
		}
	}
}

// TestDegradedResponseNotRetried: a CodeDegraded response is terminal — the
// client must not retry it (retrying a degraded engine cannot succeed and
// would mask the operator page), must not burn its retry budget, and must
// keep the connection pooled (a degraded reply is a healthy connection).
func TestDegradedResponseNotRetried(t *testing.T) {
	tl := itime.NewSimTimeline(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()
	n := sim.NewNet(tl, 1)
	stub := startStubServer(t, n, "stub:1", wire.CodeDegraded)

	d, err := client.Open("stub:1", &client.Options{
		MaxConns: 1, DialRetries: 3, RetryBackoff: 10 * time.Millisecond,
		Dialer: n.Dialer("cli"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	start := time.Now()
	_, err = d.Exec(context.Background(), "INSERT INTO t VALUES (1)")
	var re *client.RemoteError
	if !errors.As(err, &re) || !re.Degraded() {
		t.Fatalf("got %v, want degraded RemoteError", err)
	}
	// No retry: exactly one Exec frame reached the server, and the call
	// returned without sitting in backoff (the budget is untouched; 5s is
	// far below the smallest backoff-retry schedule that could stall it).
	if got := drain(stub.execs); got != 1 {
		t.Fatalf("server saw %d exec frames, want 1 (no retry of degraded)", got)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("degraded response took %v; did it sit in a retry loop?", took)
	}

	// The connection carried an orderly error frame: it must stay pooled.
	if _, err := d.Exec(context.Background(), "SELECT 1"); !errors.As(err, &re) {
		t.Fatalf("second exec: %v", err)
	}
	if got := drain(stub.accepted); got != 1 {
		t.Fatalf("server accepted %d connections, want 1 (degraded conn must stay pooled)", got)
	}
}

// TestRetryableResponseRetriesWithBudget: the contrast case — CodeRetryable
// is retried with backoff until the attempt budget is exhausted.
func TestRetryableResponseRetriesWithBudget(t *testing.T) {
	tl := itime.NewSimTimeline(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()
	n := sim.NewNet(tl, 1)
	stub := startStubServer(t, n, "stub:1", wire.CodeRetryable)

	const dialRetries = 2
	d, err := client.Open("stub:1", &client.Options{
		MaxConns: 1, DialRetries: dialRetries, RetryBackoff: 5 * time.Millisecond,
		Dialer: n.Dialer("cli"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	_, err = d.Exec(context.Background(), "INSERT INTO t VALUES (1)")
	var re *client.RemoteError
	if !errors.As(err, &re) || !re.Retryable() {
		t.Fatalf("got %v, want retryable RemoteError", err)
	}
	// Initial attempt plus dialRetries+1 retries.
	want := dialRetries + 2
	if got := drain(stub.execs); got != want {
		t.Fatalf("server saw %d exec frames, want %d", got, want)
	}
}
