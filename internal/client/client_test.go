package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/server"
	"immortaldb/internal/workload"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	db, err := immortaldb.Open(t.TempDir(), &immortaldb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, addr.String()
}

// The dial-retry-backoff and stale-idle-connection scenarios formerly here
// ran on wall-clock sleeps and real TCP rebinds; they now run on virtual
// time over the simulated network in client_sim_test.go
// (TestDialRetryBackoffSim, TestStaleIdleConnRetrySim).

func TestDialFailsAfterRetriesExhausted(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	if _, err := Open(addr, &Options{DialRetries: 2, RetryBackoff: time.Millisecond}); err == nil {
		t.Fatal("Open against nothing succeeded")
	}
}

func TestExecAfterClose(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	d, err := Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := d.Exec(context.Background(), "SELECT * FROM t"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Exec after Close: %v, want ErrPoolClosed", err)
	}
}

// TestPoolCapBlocks: with one slot held by a pinned session, Exec must block
// until its context expires, then succeed once the session releases.
func TestPoolCapBlocks(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	d, err := Open(addr, &Options{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if _, err := d.Exec(ctx, "CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	s, err := d.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := d.Exec(short, "SELECT * FROM t"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Exec over cap: %v, want deadline exceeded", err)
	}
	s.Close()
	if _, err := d.Exec(ctx, "SELECT * FROM t"); err != nil {
		t.Fatalf("Exec after release: %v", err)
	}
}

// TestRemoteErrorKeepsConnection: a statement error is not a connection
// error — the same connection keeps serving.
func TestRemoteErrorKeepsConnection(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	d, err := Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	_, err = d.Exec(ctx, "SELEKT gibberish")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if _, err := d.Exec(ctx, "CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatalf("Exec after remote error: %v", err)
	}
	if got := srv.Stats().Accepted; got != 1 {
		t.Fatalf("accepted %d connections, want 1 (conn should be reused)", got)
	}
}

// TestTxCommitOverWire round-trips an explicit transaction.
func TestTxCommitOverWire(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	d, err := Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if _, err := d.Exec(ctx, "CREATE IMMORTAL TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "INSERT INTO t VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec(ctx, "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "2" {
		t.Fatalf("rows after commit: %v", res.Rows)
	}

	// Rollback path: the write vanishes.
	tx2, err := d.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(ctx, "INSERT INTO t VALUES (9, 9)"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = d.Exec(ctx, "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows after rollback: %v", res.Rows)
	}
}

// requests counts the exec requests fn makes reach the server.
func requests(t *testing.T, srv *server.Server, fn func()) uint64 {
	t.Helper()
	before := srv.Stats().Requests
	fn()
	return srv.Stats().Requests - before
}

func mustExec(t *testing.T, s *Session, sql string) {
	t.Helper()
	if _, err := s.Exec(context.Background(), sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestAsOfReadRoundTrips is the round-trip count of an AS OF read: BEGIN
// TRAN AS OF, SELECT and COMMIT TRAN through a Session reach the server as
// two requests, because the BEGIN rides in the SELECT's frame, and keep
// doing so read after read. An auto-commit UPDATE is still one request.
func TestAsOfReadRoundTrips(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	d, err := Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	for _, stmt := range []string{"CREATE IMMORTAL TABLE t (k INT PRIMARY KEY, v INT)", "INSERT INTO t VALUES (1, 10)"} {
		if _, err := d.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	s, err := d.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	begin := fmt.Sprintf("BEGIN TRAN AS OF %q", time.Now().UTC().Add(time.Hour).Format("2006-01-02 15:04:05"))
	for i := 0; i < 3; i++ {
		n := requests(t, srv, func() {
			mustExec(t, s, begin)
			res, err := s.Exec(ctx, "SELECT v FROM t WHERE k = 1")
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "10" {
				t.Fatalf("AS OF read %d: %v, %v", i, res, err)
			}
			mustExec(t, s, "COMMIT TRAN")
		})
		if n != 2 {
			t.Fatalf("AS OF read %d took %d requests, want 2", i, n)
		}
	}
	if n := requests(t, srv, func() { mustExec(t, s, "UPDATE t SET v = 11 WHERE k = 1") }); n != 1 {
		t.Fatalf("auto-commit UPDATE took %d requests, want 1", n)
	}
}

// TestTxBeginTravelsWithItsEnd: a transaction ended right after Begin costs
// one batch, whichever way it ends, and a Session closed with its BEGIN
// still held sends nothing at all.
func TestTxBeginTravelsWithItsEnd(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	d, err := Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	ends := map[string]func(*Tx) error{
		"commit":   func(tx *Tx) error { return tx.Commit(ctx) },
		"rollback": func(tx *Tx) error { return tx.Rollback(ctx) },
	}
	for name, end := range ends {
		n := requests(t, srv, func() {
			tx, err := d.BeginAsOf(ctx, "2004-08-12 10:15:20")
			if err != nil {
				t.Fatal(err)
			}
			if err := end(tx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if n != 1 {
			t.Fatalf("Begin then %s took %d requests, want 1", name, n)
		}
	}
	n := requests(t, srv, func() {
		s, err := d.Session(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "BEGIN TRAN")
		s.Close()
	})
	if n != 0 {
		t.Fatalf("closing a Session with a held BEGIN sent %d requests, want 0", n)
	}
}

// TestDeferredBeginRefused: when the server refuses a held BEGIN, the next
// Exec reports the refusal with the BEGIN's own wire code and the statement
// behind it does not run — an UPDATE must not slip through as an auto-commit,
// neither then nor when the caller carries on with the transaction.
func TestDeferredBeginRefused(t *testing.T) {
	ctx := context.Background()
	t.Run("overloaded", func(t *testing.T) {
		// The default bucket holds one token, spent on the CREATE; tenant 7's
		// statements are unmetered. The batch is admitted as its first
		// statement, the untagged BEGIN, so it is shed whole.
		srv, addr := startServer(t, server.Config{Admission: &admit.Config{Default: admit.Quota{Burst: 1}}})
		d, err := Open(addr, &Options{DialRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		key := workload.MeterKey(7, 1, 1)
		for _, stmt := range []string{workload.MeterCreate(), fmt.Sprintf("INSERT INTO meter VALUES (%d, 10)", key)} {
			if _, err := d.Exec(ctx, stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		tx, err := d.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		update := fmt.Sprintf("UPDATE meter SET amount = 99 WHERE k = %d", key)
		var re *RemoteError
		if _, err := tx.Exec(ctx, update); !errors.As(err, &re) || !re.Overloaded() {
			t.Fatalf("UPDATE behind a shed BEGIN: got %v, want an overloaded RemoteError", err)
		}
		sel := fmt.Sprintf("SELECT amount FROM meter WHERE k = %d", key)
		if res, err := d.Exec(ctx, sel); err != nil || res.Rows[0][0] != "10" {
			t.Fatalf("after the shed batch: %v, %v; want amount 10", res, err)
		}
		// The shed ran nothing, so the retry carries the BEGIN again and the
		// UPDATE stays inside the transaction: the rollback undoes it.
		srv.Gate().Refill()
		if n := requests(t, srv, func() {
			if _, err := tx.Exec(ctx, update); err != nil {
				t.Fatalf("retried UPDATE: %v", err)
			}
		}); n != 1 {
			t.Fatalf("retried UPDATE took %d requests, want 1 batch", n)
		}
		if err := tx.Rollback(ctx); err != nil {
			t.Fatal(err)
		}
		if res, err := d.Exec(ctx, sel); err != nil || res.Rows[0][0] != "10" {
			t.Fatalf("after the rollback: %v, %v; want amount 10", res, err)
		}
	})
	t.Run("retryable", func(t *testing.T) {
		srv, addr := startServer(t, server.Config{})
		d, err := Open(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		tx, err := d.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The engine closes under a live server, so it refuses the BEGIN.
		if err := srv.DB().Close(); err != nil {
			t.Fatal(err)
		}
		var re *RemoteError
		_, refusal := tx.Exec(ctx, "UPDATE t SET v = 1 WHERE k = 1")
		if !errors.As(refusal, &re) || !re.Retryable() {
			t.Fatalf("statement behind a BEGIN on a closed engine: got %v, want a retryable RemoteError", refusal)
		}
		// The client cannot tell whether the BEGIN failed, so the rest of the
		// transaction fails with the refusal and sends nothing; only the
		// rollback goes to the server.
		if n := requests(t, srv, func() {
			if _, err := tx.Exec(ctx, "UPDATE t SET v = 2 WHERE k = 1"); err != refusal {
				t.Fatalf("Exec after the refusal: got %v, want %v", err, refusal)
			}
			if err := tx.Commit(ctx); err != refusal {
				t.Fatalf("Commit after the refusal: got %v, want %v", err, refusal)
			}
		}); n != 0 {
			t.Fatalf("a transaction whose BEGIN may have failed sent %d requests", n)
		}
	})
	t.Run("session", func(t *testing.T) {
		srv, addr := startServer(t, server.Config{})
		d, err := Open(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		s, err := d.Session(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		mustExec(t, s, "BEGIN TRAN")
		if err := srv.DB().Close(); err != nil {
			t.Fatal(err)
		}
		_, refusal := s.Exec(ctx, "SELECT * FROM t")
		if re := remoteErr(refusal); re == nil || !re.Retryable() {
			t.Fatalf("statement behind a BEGIN on a closed engine: got %v, want a retryable RemoteError", refusal)
		}
		if n := requests(t, srv, func() {
			for _, stmt := range []string{"UPDATE t SET v = 2 WHERE k = 1", "BEGIN TRAN", "COMMIT"} {
				if _, err := s.Exec(ctx, stmt); err != refusal {
					t.Fatalf("%s after the refusal: got %v, want %v", stmt, err, refusal)
				}
			}
			s.Exec(ctx, "ROLLBACK") // reaches the server, and ends the lost transaction
			if _, err := s.Exec(ctx, "SELECT * FROM t"); err == refusal {
				t.Fatalf("SELECT after ROLLBACK still refused locally")
			}
		}); n != 2 {
			t.Fatalf("ROLLBACK and SELECT after the refusal sent %d requests, want 2", n)
		}
	})
}

// TestDeferredBeginKeptOnCanceledContext: an Exec whose context has already
// ended sends nothing, so the BEGIN stays held and the next Exec runs inside
// the transaction rather than auto-committing.
func TestDeferredBeginKeptOnCanceledContext(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	d, err := Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	for _, stmt := range []string{"CREATE TABLE t (k INT PRIMARY KEY, v INT)", "INSERT INTO t VALUES (1, 10)"} {
		if _, err := d.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := d.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if n := requests(t, srv, func() {
		if _, err := tx.Exec(canceled, "UPDATE t SET v = 11 WHERE k = 1"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Exec on a canceled context: got %v", err)
		}
	}); n != 0 {
		t.Fatalf("Exec on a canceled context sent %d requests", n)
	}
	if n := requests(t, srv, func() {
		if _, err := tx.Exec(ctx, "UPDATE t SET v = 12 WHERE k = 1"); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("UPDATE after the canceled Exec took %d requests, want 1 batch", n)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatalf("Rollback: %v (the UPDATE ran outside the transaction)", err)
	}
	if res, err := d.Exec(ctx, "SELECT v FROM t WHERE k = 1"); err != nil || res.Rows[0][0] != "10" {
		t.Fatalf("after the rollback: %v, %v; want v 10", res, err)
	}
}

// TestDBExecRefusesTxControl: DB.Exec returns its connection to the pool
// after every statement, so BEGIN there would leave a transaction open for
// the next borrower. It is refused before anything is sent.
func TestDBExecRefusesTxControl(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	d, err := Open(addr, &Options{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	n := requests(t, srv, func() {
		for _, stmt := range []string{"BEGIN TRAN", "  begin transaction as of \"2004-08-12\"", "COMMIT", "Rollback Tran;"} {
			if _, err := d.Exec(ctx, stmt); !errors.Is(err, ErrTxControl) {
				t.Fatalf("DB.Exec(%q): got %v, want ErrTxControl", stmt, err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("refused statements sent %d requests", n)
	}
	// Only the whole leading keyword counts.
	var re *RemoteError
	if _, err := d.Exec(ctx, "BEGINS"); !errors.As(err, &re) {
		t.Fatalf("DB.Exec(BEGINS): got %v, want the server's parse error", err)
	}
}
