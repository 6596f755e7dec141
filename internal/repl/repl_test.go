package repl_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"immortaldb"
	"immortaldb/internal/client"
	"immortaldb/internal/itime"
	"immortaldb/internal/repl"
	"immortaldb/internal/server"
	"immortaldb/internal/sim"
)

func testOpts() *immortaldb.Options {
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	clock.AutoStep = 1
	clock.AutoEvery = 3
	return &immortaldb.Options{
		PageSize:       1024,
		CacheFrames:    64,
		NoSync:         true,
		WALSegmentSize: 4096,
		Clock:          clock,
	}
}

// cluster is one primary engine served over a simulated network.
type cluster struct {
	t       *testing.T
	net     *sim.Net
	primary *immortaldb.DB
	srv     *server.Server
	addr    string
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	primary, err := immortaldb.Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	n := sim.NewNet(nil, 7)
	const addr = "primary:7707"
	lis, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(primary, server.Config{Logf: t.Logf})
	if err := srv.ListenOn(lis); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return &cluster{t: t, net: n, primary: primary, srv: srv, addr: addr}
}

func (c *cluster) follower(label string) *repl.Follower {
	f := repl.NewFollower(repl.Config{
		Dir:          c.t.TempDir(),
		Addr:         c.addr,
		DBOptions:    testOpts(),
		Dialer:       c.net.Dialer(label),
		PollInterval: 2 * time.Millisecond,
		Logf:         c.t.Logf,
	})
	c.t.Cleanup(func() { f.Close() })
	return f
}

func commit(t *testing.T, db *immortaldb.DB, tbl *immortaldb.Table, key, val string) immortaldb.Timestamp {
	t.Helper()
	if err := db.Update(func(tx *immortaldb.Tx) error {
		return tx.Set(tbl, []byte(key), []byte(val))
	}); err != nil {
		t.Fatal(err)
	}
	return db.Now()
}

// state reads every row of tbl at the given timestamp (or the horizon when
// at is the zero value, via a snapshot read).
func state(t *testing.T, db *immortaldb.DB, table string, at immortaldb.Timestamp) map[string]string {
	t.Helper()
	tbl, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var tx *immortaldb.Tx
	if at == (immortaldb.Timestamp{}) {
		tx, err = db.Begin(immortaldb.SnapshotIsolation)
	} else {
		tx, err = db.BeginAsOfTS(at)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	got := map[string]string{}
	if err := tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func wantEqual(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %s = %q, want %q", label, k, got[k], v)
		}
	}
}

// TestFollowerSyncAndServe exercises the whole network path: a table
// created and populated over SQL against the primary server, hello plus
// segment streaming to a follower (catalog SMO records included), reads
// served over SQL from the follower's own server, and the typed wire errors
// for writes and beyond-horizon AS OF reads on the replica.
func TestFollowerSyncAndServe(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()

	pcli, err := client.Open(c.addr, &client.Options{Dialer: c.net.Dialer("pcli")})
	if err != nil {
		t.Fatal(err)
	}
	defer pcli.Close()
	mustSQL := func(sql string) {
		t.Helper()
		if _, err := pcli.Exec(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustSQL("CREATE IMMORTAL TABLE kv (id int PRIMARY KEY, v int)")
	mustSQL("INSERT INTO kv VALUES (1, 100)")
	mustSQL("INSERT INTO kv VALUES (2, 200)")
	t1 := c.primary.Now()

	f := c.follower("f1")
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	rdb := f.DB()
	if rdb == nil {
		t.Fatal("no replica engine after sync")
	}
	wantEqual(t, "replica after first sync",
		state(t, rdb, "kv", immortaldb.Timestamp{}),
		state(t, c.primary, "kv", immortaldb.Timestamp{}))

	// The horizon covers everything the primary committed.
	if h := rdb.Horizon(); h.MaxVisible.Less(t1) {
		t.Fatalf("horizon %v behind primary commit %v", h.MaxVisible, t1)
	}

	// New primary commits appear after the next sync, and the old state
	// stays readable AS OF the old timestamp.
	mustSQL("UPDATE kv SET v = 150 WHERE id = 1")
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	wantEqual(t, "replica after second sync",
		state(t, rdb, "kv", immortaldb.Timestamp{}),
		state(t, c.primary, "kv", immortaldb.Timestamp{}))
	wantEqual(t, "replica AS OF t1",
		state(t, rdb, "kv", t1),
		state(t, c.primary, "kv", t1))

	// Serve the replica over its own server and hit it with the real client:
	// reads work, writes come back typed as read-only-replica redirects, and
	// an AS OF read past the horizon comes back typed as beyond-horizon.
	rlis, err := c.net.Listen("replica:7707")
	if err != nil {
		t.Fatal(err)
	}
	rsrv := server.New(rdb, server.Config{Logf: t.Logf})
	if err := rsrv.ListenOn(rlis); err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve()
	defer rsrv.Close()

	cli, err := client.Open("replica:7707", &client.Options{Dialer: c.net.Dialer("cli")})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	res, err := cli.Exec(ctx, "SELECT v FROM kv WHERE id = 1")
	if err != nil {
		t.Fatalf("SELECT on replica: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "150" {
		t.Fatalf("SELECT on replica: got %+v", res.Rows)
	}

	_, err = cli.Exec(ctx, "UPDATE kv SET v = 1 WHERE id = 1")
	var re *client.RemoteError
	if !errors.As(err, &re) || !re.ReadOnlyReplica() {
		t.Fatalf("write on replica: got %v, want read-only-replica error", err)
	}

	// The client sends the BEGIN with the transaction's first statement, so
	// that statement carries the replica's refusal.
	tx, err := cli.BeginAsOf(ctx, "2031-01-01 00:00:00")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tx.Exec(ctx, "SELECT v FROM kv WHERE id = 1")
	if !errors.As(err, &re) || !re.BeyondHorizon() {
		t.Fatalf("future AS OF on replica: got %v, want beyond-horizon error", err)
	}
	tx.Rollback(ctx) // reports no open transaction: the BEGIN never ran
}

// TestFollowerRunStreamsContinuously drives the background Run loop: commits
// made while the follower streams become visible without explicit syncs.
func TestFollowerRunStreamsContinuously(t *testing.T) {
	c := newCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	tbl, err := c.primary.CreateTable("kv", immortaldb.TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, c.primary, tbl, "k0", "v0")

	f := c.follower("runner")
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	last := commit(t, c.primary, tbl, "k1", "v1")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := f.Horizon(); !h.MaxVisible.Less(last) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower horizon %v never reached %v", f.Horizon().MaxVisible, last)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wantEqual(t, "streamed state", state(t, f.DB(), "kv", immortaldb.Timestamp{}),
		map[string]string{"k0": "v0", "k1": "v1"})

	if n, _ := c.srv.Shipper().Stats(); n != 1 {
		t.Fatalf("shipper followers = %d, want 1", n)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestFollowerBaseReseed forces the retention gap twice: a fresh follower
// joining after the primary truncated history is seeded from a base
// snapshot, and a follower that fell behind retention while offline is
// wiped and re-seeded — both ending byte-exact with the primary, including
// AS OF states predating the snapshot (served from copied tree pages).
func TestFollowerBaseReseed(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()

	tbl, err := c.primary.CreateTable("kv", immortaldb.TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	early := commit(t, c.primary, tbl, "k0", "v0")
	want := map[string]string{"k0": "v0"}
	for i := 0; i < 30; i++ {
		key := string(rune('a' + i%26))
		commit(t, c.primary, tbl, key, "x")
		want[key] = "x"
	}
	if err := c.primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if c.primary.Log().FirstRetained() == 16 {
		t.Fatal("primary never truncated; reseed not exercised")
	}

	f := c.follower("reseed")
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("seeded sync: %v", err)
	}
	if _, reseeds := f.Stats(); reseeds != 1 {
		t.Fatalf("base reseeds = %d, want 1", reseeds)
	}
	wantEqual(t, "replica after base seed", state(t, f.DB(), "kv", immortaldb.Timestamp{}), want)
	wantEqual(t, "replica AS OF pre-snapshot time", state(t, f.DB(), "kv", early),
		map[string]string{"k0": "v0"})
	followerEnd := f.DB().Log().End()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Fall behind retention while offline: keep committing and
	// checkpointing until truncation passes the follower's log end.
	for i := 0; c.primary.Log().FirstRetained() <= followerEnd; i++ {
		if i > 200 {
			t.Fatal("primary never truncated past follower position")
		}
		key := string(rune('A' + i%26))
		commit(t, c.primary, tbl, key, "y")
		want[key] = "y"
		if err := c.primary.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	f2 := repl.NewFollower(repl.Config{
		Dir:       f.Dir(),
		Addr:      "primary:7707",
		DBOptions: testOpts(),
		Dialer:    c.net.Dialer("reseed2"),
		Logf:      t.Logf,
	})
	defer f2.Close()
	if err := f2.Sync(ctx); err != nil {
		t.Fatalf("re-seed sync: %v", err)
	}
	if _, reseeds := f2.Stats(); reseeds != 1 {
		t.Fatalf("second follower base reseeds = %d, want 1", reseeds)
	}
	wantEqual(t, "replica after re-seed", state(t, f2.DB(), "kv", immortaldb.Timestamp{}), want)
}
