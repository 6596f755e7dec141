// Overload and redirect-race retry policy, on virtual time: CodeOverloaded
// sheds must be retried on the server's retry-after hint (not the
// exponential backoff schedule), connection-cap refusals must be retryable
// rather than budget-burning dead ends, and a redirect chain racing a second
// promotion must converge without double-applying a commit or hanging.
package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"immortaldb/internal/client"
	"immortaldb/internal/itime"
	"immortaldb/internal/server"
	"immortaldb/internal/sim"
	"immortaldb/internal/wire"
)

// TestOverloadedResponseHintBackoff: a CodeOverloaded shed is retried, and
// each retry waits the server's hint — here 10ms — instead of the escalating
// exponential schedule (1s base), so a full retry round costs tens of
// milliseconds of budget, not seconds.
func TestOverloadedResponseHintBackoff(t *testing.T) {
	tl := itime.NewSimClock(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()
	n := sim.NewNet(tl, 1)
	stub := startStubServer(t, n, "stub:1", wire.CodeOverloaded)
	stub.msg = wire.OverloadMsg("server busy", 10*time.Millisecond)

	const dialRetries = 3
	d, err := client.Open("stub:1", &client.Options{
		MaxConns: 1, DialRetries: dialRetries, RetryBackoff: time.Second,
		Dialer: n.Dialer("cli"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	startV := tl.Now()
	_, err = d.Exec(context.Background(), "INSERT INTO t VALUES (1)")
	elapsedV := tl.Now().Sub(startV)

	var re *client.RemoteError
	if !errors.As(err, &re) || !re.Overloaded() {
		t.Fatalf("got %v, want overloaded RemoteError", err)
	}
	if re.RetryAfter != 10*time.Millisecond {
		t.Fatalf("RetryAfter %v, want 10ms", re.RetryAfter)
	}
	// Initial attempt plus dialRetries+1 retries — sheds are retried like
	// any other transient condition.
	want := dialRetries + 2
	if got := drain(stub.execs); got != want {
		t.Fatalf("server saw %d exec frames, want %d", got, want)
	}
	// Four hinted waits ≈ 40ms of virtual time. Had the retries used the
	// 1s-base exponential schedule instead, the same round would have slept
	// well over 3s.
	if elapsedV >= time.Second {
		t.Fatalf("retry round consumed %v of virtual time; hint ignored?", elapsedV)
	}
}

// TestConnCapRefusalRetryableWithHint is the regression test for the
// connection-cap dead end: a refusal over the cap must come back as a
// retryable CodeOverloaded with a retry-after hint — a typed error the
// caller can classify, reached on the cheap hinted schedule rather than
// after burning the whole exponential backoff budget — and a later retry
// must get in once a slot frees up.
func TestConnCapRefusalRetryableWithHint(t *testing.T) {
	n, tl, srv, addr := simCluster(t, server.Config{MaxConns: 1})
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()

	dA, err := client.Open(addr, &client.Options{
		MaxConns: 1, Dialer: n.Dialer("cliA"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dA.Close()
	sessA, err := dA.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The cap is full: a second client's dial is refused every attempt and
	// must surface the typed overload — after hinted waits (100ms each),
	// not the 1s-base exponential schedule.
	startV := tl.Now()
	_, err = client.Open(addr, &client.Options{
		MaxConns: 1, DialRetries: 2, RetryBackoff: time.Second,
		Dialer: n.Dialer("cliB"), Timeline: tl,
	})
	elapsedV := tl.Now().Sub(startV)
	var re *client.RemoteError
	if !errors.As(err, &re) || !re.Overloaded() {
		t.Fatalf("refused dial: got %v, want overloaded RemoteError", err)
	}
	if re.RetryAfter <= 0 {
		t.Fatal("cap refusal carried no retry-after hint")
	}
	if elapsedV >= time.Second {
		t.Fatalf("refused dial consumed %v of virtual time; hint ignored?", elapsedV)
	}
	if got := srv.Stats().Refused; got == 0 {
		t.Fatal("server refused counter did not move")
	}

	// Free the slot; a retrying client must now get in on its own.
	sessA.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveConns != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never reaped the released connection")
		}
		time.Sleep(time.Millisecond)
	}
	dB, err := client.Open(addr, &client.Options{
		MaxConns: 1, DialRetries: 10, Dialer: n.Dialer("cliB2"), Timeline: tl,
	})
	if err != nil {
		t.Fatalf("open after slot freed: %v", err)
	}
	defer dB.Close()
	if err := dB.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRedirectRetryRacesSecondPromotion: the client follows a replica's
// redirect, but the redirect target was itself deposed before the retry
// lands (a second promotion won). The first Exec must surface a typed
// replica error naming the newer primary — one hop per call, no chasing —
// and the caller's retry must then land the commit on the real primary
// exactly once.
func TestRedirectRetryRacesSecondPromotion(t *testing.T) {
	// Real server C is the twice-promoted primary; stubs A and B are the
	// deposed hops. A redirects to B, B redirects to C.
	n, tl, srv, primaryAddr := simCluster(t, server.Config{})
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()
	stubB := startStubServer(t, n, "stubB:1", wire.CodeReadOnlyReplica)
	stubB.msg = wire.RedirectMsg("server: read-only replica", primaryAddr)
	stubA := startStubServer(t, n, "stubA:1", wire.CodeReadOnlyReplica)
	stubA.msg = wire.RedirectMsg("server: read-only replica", "stubB:1")

	d, err := client.Open("stubA:1", &client.Options{
		MaxConns: 1, DialRetries: 2, RetryBackoff: time.Millisecond,
		Dialer: n.Dialer("cli"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if _, err := d.Exec(ctx, "CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err == nil {
		t.Fatal("first exec: want a replica refusal after one hop, got success")
	} else {
		var re *client.RemoteError
		if !errors.As(err, &re) || !re.ReadOnlyReplica() {
			t.Fatalf("first exec: got %v, want read-only-replica RemoteError", err)
		}
		// The error names the newer primary, so the caller (or the next
		// call) can converge instead of hanging.
		if re.Primary != primaryAddr {
			t.Fatalf("first exec advertised primary %q, want %q", re.Primary, primaryAddr)
		}
	}
	if d.Addr() != "stubB:1" {
		t.Fatalf("pool points at %q after one hop, want stubB:1", d.Addr())
	}

	// The caller retries: B still redirects, and this call's one hop lands
	// on the true primary.
	if _, err := d.Exec(ctx, "CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatalf("second exec: %v", err)
	}
	if _, err := d.Exec(ctx, "INSERT INTO t VALUES (1, 10)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Exactly-once: each deposed hop saw exactly one frame per Exec that
	// crossed it, and the committed row exists exactly once on the primary.
	if got := drain(stubA.execs); got != 1 {
		t.Fatalf("stub A saw %d exec frames, want 1", got)
	}
	if got := drain(stubB.execs); got != 2 {
		t.Fatalf("stub B saw %d exec frames, want 2", got)
	}
	res, err := d.Exec(ctx, "SELECT k, v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("committed rows: %d, want exactly 1", len(res.Rows))
	}
	if got := srv.Stats().Requests; got != 3 {
		t.Fatalf("primary served %d statements, want 3 (CREATE, INSERT, SELECT)", got)
	}
}

// TestRedirectNoPrimaryReachable: every hop is a deposed replica and the
// last one knows no primary. The client must surface a typed error promptly
// — never hang, never loop.
func TestRedirectNoPrimaryReachable(t *testing.T) {
	tl := itime.NewSimClock(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
	defer stop()
	n := sim.NewNet(tl, 1)
	stubB := startStubServer(t, n, "stubB:1", wire.CodeReadOnlyReplica)
	stubB.msg = "server: read-only replica" // deposed, knows no primary
	stubA := startStubServer(t, n, "stubA:1", wire.CodeReadOnlyReplica)
	stubA.msg = wire.RedirectMsg("server: read-only replica", "stubB:1")

	d, err := client.Open("stubA:1", &client.Options{
		MaxConns: 1, DialRetries: 2, RetryBackoff: time.Millisecond,
		Dialer: n.Dialer("cli"), Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	start := time.Now()
	_, err = d.Exec(context.Background(), "INSERT INTO t VALUES (1)")
	var re *client.RemoteError
	if !errors.As(err, &re) || !re.ReadOnlyReplica() {
		t.Fatalf("got %v, want read-only-replica RemoteError", err)
	}
	if re.Primary != "" {
		t.Fatalf("advertised primary %q, want none", re.Primary)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("no-primary refusal took %v; did it hang or loop?", took)
	}
}
