package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/client"
	"immortaldb/internal/sqlish"
	"immortaldb/internal/wire"
	"immortaldb/internal/workload"
)

// rawConn is a hand-driven wire connection, for requests the pooled client
// never sends.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

// dialRaw connects and shakes hands at the given protocol version; the
// server must answer with that same version.
func dialRaw(t *testing.T, addr string, version byte) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	r := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
	typ, payload := r.roundTrip(wire.MsgHello, append([]byte(wire.Magic), version))
	if typ != wire.MsgHelloOK || len(payload) != 1 || payload[0] != version {
		t.Fatalf("hello v%d: got frame %#x %v, want HelloOK [%d]", version, typ, payload, version)
	}
	return r
}

func (r *rawConn) roundTrip(typ byte, payload []byte) (byte, []byte) {
	r.t.Helper()
	if err := wire.WriteFrame(r.nc, typ, payload); err != nil {
		r.t.Fatal(err)
	}
	rtyp, resp, err := wire.ReadFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	return rtyp, resp
}

// exec sends one statement as MsgExec, or several as one MsgExecBatch, and
// returns the decoded result, or the error code and message.
func (r *rawConn) exec(stmts ...string) (*sqlish.Result, byte, string) {
	r.t.Helper()
	typ, payload := wire.MsgExec, []byte(stmts[0])
	if len(stmts) > 1 {
		typ, payload = wire.MsgExecBatch, wire.AppendExecBatch(nil, stmts...)
	}
	rtyp, resp := r.roundTrip(typ, payload)
	switch rtyp {
	case wire.MsgResult:
		res, err := sqlish.DecodeResult(resp)
		if err != nil {
			r.t.Fatal(err)
		}
		return res, 0, ""
	case wire.MsgError:
		code, msg := wire.ParseError(resp)
		return nil, code, msg
	}
	r.t.Fatalf("reply frame type %#x", rtyp)
	return nil, 0, ""
}

func (r *rawConn) mustExec(stmts ...string) *sqlish.Result {
	r.t.Helper()
	res, _, msg := r.exec(stmts...)
	if res == nil {
		r.t.Fatalf("%q: %s", stmts, msg)
	}
	return res
}

// TestBeginResultMatchesServer: the Result a client.Session answers a BEGIN
// with locally — without a request reaching the server — is exactly the one
// the server sends for the same statement.
func TestBeginResultMatchesServer(t *testing.T) {
	_, srv, addr := startServer(t, t.TempDir(), &immortaldb.Options{NoSync: true}, Config{})
	ctx := context.Background()
	pool, err := client.Open(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, stmt := range []string{
		`BEGIN TRAN`,
		`begin transaction;`,
		`BEGIN TRAN ISOLATION SNAPSHOT`,
		`BEGIN TRAN AS OF "2004-08-12 10:15:20"`,
		`Begin Tran AS OF '2004-08-12T10:15:20.5Z' ISOLATION SNAPSHOT`,
		`BEGIN TRAN AS OF "8/12/2004"`,
	} {
		want := dialRaw(t, addr, wire.Version).mustExec(stmt)
		s, err := pool.Session(ctx)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Stats().Requests
		got, err := s.Exec(ctx, stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if n := srv.Stats().Requests - before; n != 0 {
			t.Fatalf("%s: %d requests reached the server, want the BEGIN held", stmt, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: client answered %+v, server answers %+v", stmt, got, want)
		}
		s.Close()
	}
}

// TestExecBatchStopsAtFirstError: a batch runs in order and stops at the
// first failure, whose error is the reply; the statement after it does not
// run. In particular a BEGIN the engine refuses leaves the UPDATE behind it
// unexecuted instead of letting it auto-commit.
func TestExecBatchStopsAtFirstError(t *testing.T) {
	_, srv, addr := startServer(t, t.TempDir(), &immortaldb.Options{NoSync: true}, Config{})
	r := dialRaw(t, addr, wire.Version)
	r.mustExec("CREATE IMMORTAL TABLE kv (k INT PRIMARY KEY, v INT)")
	r.mustExec("INSERT INTO kv VALUES (1, 10)")

	before := srv.Stats()
	if res, code, msg := r.exec(`BEGIN TRAN AS OF "no such time"`, "UPDATE kv SET v = 99 WHERE k = 1"); res != nil || code != wire.CodeGeneric || !strings.Contains(msg, "AS OF") {
		t.Fatalf("failed BEGIN in a batch: got %+v, code %d, %q; want the BEGIN's error", res, code, msg)
	}
	r.mustExec("BEGIN TRAN")
	if res, _, msg := r.exec("BEGIN TRAN", "UPDATE kv SET v = 99 WHERE k = 1"); res != nil || !strings.Contains(msg, "already open") {
		t.Fatalf("BEGIN batch inside a transaction: got %+v, %q; want the BEGIN's error", res, msg)
	}
	r.mustExec("ROLLBACK")
	if res, _, msg := r.exec("BEGIN TRAN", "INSERT INTO kv VALUES (1, 11)"); res != nil || !strings.Contains(msg, "duplicate") {
		t.Fatalf("batch with a duplicate key: got %+v, %q; want the duplicate-key error", res, msg)
	}
	r.mustExec("ROLLBACK")
	after := srv.Stats()
	if after.Requests-before.Requests != 6 || after.Errors-before.Errors != 3 {
		t.Fatalf("three failing batches and three statements counted %d requests, %d errors; want 6 and 3",
			after.Requests-before.Requests, after.Errors-before.Errors)
	}
	res := r.mustExec("SELECT * FROM kv")
	if want := [][]string{{"1", "10"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows after the failed batches: %v, want %v", res.Rows, want)
	}

	// A batch that succeeds answers with its last statement's result, and
	// its BEGIN opens a transaction that later frames continue.
	res = r.mustExec("BEGIN TRAN", "UPDATE kv SET v = 12 WHERE k = 1")
	if res.Affected != 1 {
		t.Fatalf("batch result %+v, want the UPDATE's", res)
	}
	r.mustExec("ROLLBACK")
	if res := r.mustExec("SELECT v FROM kv WHERE k = 1"); res.Rows[0][0] != "10" {
		t.Fatalf("rolled-back update visible: %v", res.Rows)
	}
}

// TestExecBatchShape: the server runs a batch only as a BEGIN and one
// statement, the shape the client sends. A batch is admitted once, as its
// first statement, so any other shape could carry auto-commit statements of
// one tenant past the gate under another tenant's tag; it is refused
// without running anything.
func TestExecBatchShape(t *testing.T) {
	const metered, unmetered = 9, 7
	_, srv, addr := startServer(t, t.TempDir(), &immortaldb.Options{NoSync: true}, Config{
		Admission: &admit.Config{PerTenant: map[uint32]admit.Quota{metered: {Burst: 1}}},
	})
	r := dialRaw(t, addr, wire.Version)
	r.mustExec(workload.MeterCreate())
	mk, uk := workload.MeterKey(metered, 1, 1), workload.MeterKey(unmetered, 1, 1)
	r.mustExec(fmt.Sprintf("INSERT INTO meter VALUES (%d, 10)", mk)) // the metered tenant's one token
	update := fmt.Sprintf("UPDATE meter SET amount = 99 WHERE k = %d", mk)
	if res, code, _ := r.exec(update); res != nil || code != wire.CodeOverloaded {
		t.Fatalf("metered UPDATE with an empty bucket: got %+v, code %d; want a shed", res, code)
	}

	before := srv.Stats().Requests
	for _, batch := range [][]string{
		{fmt.Sprintf("INSERT INTO meter VALUES (%d, 1)", uk), update},
		{fmt.Sprintf("SELECT * FROM meter WHERE k = %d", uk), update, update},
		{"BEGIN TRAN", update, "COMMIT"},
		{update, "BEGIN TRAN"},
	} {
		if res, _, msg := r.exec(batch...); res != nil || !strings.Contains(msg, "a BEGIN and one statement") {
			t.Fatalf("batch %q: got %+v, %q; want it refused for its shape", batch, res, msg)
		}
	}
	if typ, _ := r.roundTrip(wire.MsgExecBatch, wire.AppendExecBatch(nil, "BEGIN TRAN")); typ != wire.MsgError {
		t.Fatalf("a lone BEGIN as a batch: reply %#x, want an error", typ)
	}
	if n := srv.Stats().Requests - before; n != 0 {
		t.Fatalf("refused batches ran %d requests", n)
	}
	res := r.mustExec("SELECT * FROM meter")
	if want := [][]string{{fmt.Sprint(mk), "10"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows after the refused batches: %v, want %v", res.Rows, want)
	}
}

// TestProtocolV2ClientServed: a version 2 client keeps its one statement per
// frame, and a batch frame — which it cannot send — is refused as an unknown
// message without harming the connection. Malformed batches get the same
// treatment on version 3.
func TestProtocolV2ClientServed(t *testing.T) {
	_, _, addr := startServer(t, t.TempDir(), &immortaldb.Options{NoSync: true}, Config{})
	v2 := dialRaw(t, addr, 2)
	v2.mustExec("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
	v2.mustExec("BEGIN TRAN")
	v2.mustExec("INSERT INTO t VALUES (1, 1)")
	v2.mustExec("COMMIT")
	if res, _, msg := v2.exec("INSERT INTO t VALUES (2, 2)", "INSERT INTO t VALUES (3, 3)"); res != nil || !strings.Contains(msg, "unknown message type") {
		t.Fatalf("batch on a v2 connection: got %+v, %q; want unknown message type", res, msg)
	}
	if res := v2.mustExec("SELECT * FROM t"); len(res.Rows) != 1 {
		t.Fatalf("rows: %v, want only the committed insert", res.Rows)
	}

	v3 := dialRaw(t, addr, wire.Version)
	for _, payload := range [][]byte{nil, {0}, {2, 1, 'x'}, append(wire.AppendExecBatch(nil, "SELECT * FROM t"), 0)} {
		if typ, _ := v3.roundTrip(wire.MsgExecBatch, payload); typ != wire.MsgError {
			t.Fatalf("malformed batch %v: reply %#x, want an error", payload, typ)
		}
	}
	if res := v3.mustExec("SELECT * FROM t"); len(res.Rows) != 1 {
		t.Fatalf("after malformed batches: %v", res.Rows)
	}
}
