package sim

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"immortaldb/internal/itime"
)

func newTestNet(t *testing.T, seed int64) (*Net, *itime.SimTimeline) {
	t.Helper()
	tl := itime.NewSimTimeline(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	return NewNet(tl, seed), tl
}

// accept returns the server end of the next dialed connection.
func accept(t *testing.T, lis net.Listener) net.Conn {
	t.Helper()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	select {
	case c, ok := <-ch:
		if !ok {
			t.Fatal("accept failed")
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	return nil
}

func TestSimnetRoundTripAndEOF(t *testing.T) {
	n, _ := newTestNet(t, 1)
	lis, err := n.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	dial := n.Dialer("cli")
	cli, err := dial(context.Background(), "a:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := accept(t, lis)

	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	k, err := srv.Read(buf)
	if err != nil || string(buf[:k]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:k], err)
	}
	if _, err := srv.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	k, err = cli.Read(buf)
	if err != nil || string(buf[:k]) != "pong" {
		t.Fatalf("client read %q, %v", buf[:k], err)
	}

	// FIN: the peer drains buffered data, then sees EOF.
	if _, err := cli.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	k, err = srv.Read(buf)
	if err != nil || string(buf[:k]) != "bye" {
		t.Fatalf("read before EOF: %q, %v", buf[:k], err)
	}
	if _, err := srv.Read(buf); err != io.EOF {
		t.Fatalf("after FIN: %v, want EOF", err)
	}
	if _, err := cli.Write([]byte("x")); err == nil {
		t.Fatal("write on closed conn succeeded")
	}
}

func TestSimnetLatencyIsVirtual(t *testing.T) {
	n, tl := newTestNet(t, 2)
	n.SetProfile(Profile{Latency: 50 * time.Millisecond})
	lis, _ := n.Listen("a:1")
	cli, err := n.Dialer("cli")(context.Background(), "a:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := accept(t, lis)
	if _, err := cli.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}

	got := make(chan byte, 1)
	go func() {
		buf := make([]byte, 1)
		if _, err := srv.Read(buf); err == nil {
			got <- buf[0]
		}
	}()
	// Nothing may arrive while virtual time stands still.
	select {
	case <-got:
		t.Fatal("delivery before virtual latency elapsed")
	case <-time.After(30 * time.Millisecond):
	}
	tl.Advance(60 * time.Millisecond)
	select {
	case b := <-got:
		if b != 'x' {
			t.Fatalf("got %q", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived after Advance")
	}
}

func TestSimnetScriptedKillKeepsPrefix(t *testing.T) {
	n, _ := newTestNet(t, 3)
	// Kill the 3rd op (the second write) of cli's first connection,
	// delivering 2 bytes of it.
	n.InjectFault(Fault{Dialer: "cli", Op: "write", StartOp: 3, Count: 1, Mode: Kill, KeepBytes: 2})
	lis, _ := n.Listen("a:1")
	cli, err := n.Dialer("cli")(context.Background(), "a:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := accept(t, lis)

	if _, err := cli.Write([]byte("ok")); err != nil { // op 2: delivered
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("doomed")); err != nil { // op 3: killed after 2 bytes
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	total := 0
	for total < 4 {
		k, err := srv.Read(buf[total:])
		if err != nil {
			t.Fatalf("read after %d bytes: %v", total, err)
		}
		total += k
	}
	if string(buf[:4]) != "okdo" {
		t.Fatalf("prefix %q, want %q", buf[:4], "okdo")
	}
	// The rest of the frame never arrives: reset.
	if _, err := srv.Read(buf); err == nil || !errors.Is(err, errReset) {
		t.Fatalf("after kill: %v, want reset", err)
	}
	if _, err := cli.Write([]byte("x")); err == nil || !errors.Is(err, errReset) {
		t.Fatalf("write after kill: %v, want reset", err)
	}
}

func TestSimnetDropWedgesUntilVirtualDeadline(t *testing.T) {
	n, tl := newTestNet(t, 4)
	n.InjectFault(Fault{Dialer: "cli", Op: "write", StartOp: 2, Count: -1, Mode: Drop})
	lis, _ := n.Listen("a:1")
	cli, err := n.Dialer("cli")(context.Background(), "a:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := accept(t, lis)

	if _, err := cli.Write([]byte("vanishes")); err != nil {
		t.Fatal(err) // black-holed writes still "succeed"
	}
	srv.SetReadDeadline(tl.Now().Add(time.Minute))
	done := make(chan error, 1)
	go func() {
		_, err := srv.Read(make([]byte, 8))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("read returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	tl.Advance(2 * time.Minute)
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("wedged read: %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual deadline never fired")
	}
}

func TestSimnetPartitionAndHeal(t *testing.T) {
	n, _ := newTestNet(t, 5)
	lis, _ := n.Listen("a:1")
	dial := n.Dialer("cli")
	cli, err := dial(context.Background(), "a:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := accept(t, lis)

	n.Partition("a:1")
	if _, err := cli.Write([]byte("x")); err == nil {
		t.Fatal("write over a partition succeeded")
	}
	if _, err := srv.Read(make([]byte, 1)); err == nil || !errors.Is(err, errReset) {
		t.Fatalf("server read across partition: %v, want reset", err)
	}
	if _, err := dial(context.Background(), "a:1"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial into partition: %v, want refused", err)
	}

	n.Heal("a:1")
	cli2, err := dial(context.Background(), "a:1")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	srv2 := accept(t, lis)
	if _, err := cli2.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := srv2.Read(buf); err != nil || buf[0] != 'y' {
		t.Fatalf("after heal: %q, %v", buf, err)
	}
}

// TestSimnetProfileDrawsReplay runs the same chaotic traffic twice under one
// seed and expects identical fault events — the per-connection plans must be
// pure functions of (seed, label, dial sequence).
//
// Both ends exchange whole two-byte messages, as the wire protocol exchanges
// whole frames. A killed write delivers a strict prefix and then resets the
// pair; an end that acted on that prefix could write, and so draw from the
// pair's rng, before the reset lands. The read deadline is many pump steps
// long, so only a dropped message ever times out, never a slow echo.
func TestSimnetProfileDrawsReplay(t *testing.T) {
	const msg = "hi"
	run := func() []string {
		n, tl := newTestNet(t, 42)
		stop := tl.StartPump(100*time.Microsecond, 50*time.Millisecond)
		defer stop()
		trace := NewTrace()
		n.SetRecorder(trace.Add)
		n.SetProfile(Profile{KillProb: 0.3, DropProb: 0.2, RefuseProb: 0.2})
		lis, _ := n.Listen("a:1")
		go func() {
			for {
				c, err := lis.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					buf := make([]byte, len(msg))
					for {
						if _, err := io.ReadFull(c, buf); err != nil {
							return
						}
						if _, err := c.Write(buf); err != nil {
							return
						}
					}
				}(c)
			}
		}()
		for _, label := range []string{"u", "v"} {
			dial := n.Dialer(label)
			for i := 0; i < 8; i++ {
				c, err := dial(context.Background(), "a:1")
				if err != nil {
					continue
				}
				for j := 0; j < 4; j++ {
					if _, err := c.Write([]byte(msg)); err != nil {
						break
					}
					c.SetReadDeadline(n.Timeline().Now().Add(5 * time.Second))
					if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
						break
					}
				}
				c.Close()
			}
		}
		lis.Close()
		return trace.Lines()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no fault events recorded; chaos profile had no effect")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
