package immortaldb

import (
	"errors"
	"testing"
	"time"

	"immortaldb/internal/itime"
)

// TestCloseAbortsOpenTransactions drives the shutdown drain end to end: an
// in-flight operation is waited out, new Begin calls are refused while the
// drain runs, the killed transaction's later operations fail with ErrAborted,
// and after reopening the rolled-back write is gone while committed data
// survives.
func TestCloseAbortsOpenTransactions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	set(t, db, tbl, "committed", "stays")

	tx, err := db.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(tbl, []byte("open"), []byte("goes")); err != nil {
		t.Fatal(err)
	}
	// Simulate an operation caught mid-flight: Close must wait for it.
	if err := tx.opEnter(false); err != nil {
		t.Fatal(err)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- db.Close() }()

	// Wait for Close to start draining.
	for {
		db.mu.Lock()
		draining := db.draining
		db.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := db.Begin(Serializable); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Begin during drain: got %v, want ErrShuttingDown", err)
	}
	if err := tx.Set(tbl, []byte("late"), []byte("x")); !errors.Is(err, ErrAborted) {
		t.Fatalf("write on killed tx: got %v, want ErrAborted", err)
	}
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned before the in-flight op drained: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	db.opExit() // the in-flight op finishes
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit after Close: got %v, want ErrAborted", err)
	}

	db2, err := Open(dir, testOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rtx, err := db2.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	defer rtx.Rollback()
	if v, ok := get(t, rtx, tbl2, "committed"); !ok || v != "stays" {
		t.Fatalf("committed row after reopen: %q, %v", v, ok)
	}
	if _, ok := get(t, rtx, tbl2, "open"); ok {
		t.Fatal("rolled-back write visible after reopen")
	}
}

// TestCloseDrainTimeout pins an operation in flight forever; Close must give
// up once DrainTimeout has passed on the engine's clock, leave the straggler
// for recovery, and still close the files. A reopen then undoes the
// straggler's update.
func TestCloseDrainTimeout(t *testing.T) {
	dir := t.TempDir()
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	const grace = time.Minute
	db, err := Open(dir, testOpts(func(o *Options) {
		o.Clock = clock
		o.DrainTimeout = grace
	}))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(tbl, []byte("stuck"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.opEnter(false); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	waitParked(t, "immortaldb.(*DB).Close")
	clock.Advance(grace - itime.TickDuration)
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v a tick before the drain timeout", err)
	default:
	}
	clock.Advance(itime.TickDuration)
	if err := awaitResult(t, closed, "Close after Advance(DrainTimeout)"); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(dir, testOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rtx, err := db2.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	defer rtx.Rollback()
	if _, ok := get(t, rtx, tbl2, "stuck"); ok {
		t.Fatal("straggler's write visible after recovery")
	}
}

// TestCloseIdempotent ensures double Close is safe and Begin after Close
// fails cleanly.
func TestCloseIdempotent(t *testing.T) {
	db, _ := openTestDB(t, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db.Begin(Serializable); err == nil {
		t.Fatal("Begin after Close succeeded")
	}
}

// TestStatsSnapshot sanity-checks the counter snapshot that feeds /metrics.
func TestStatsSnapshot(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, err := db.CreateTable("t", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		set(t, db, tbl, "k", "v")
	}
	tx, _ := db.Begin(Serializable)
	tx.Set(tbl, []byte("x"), []byte("y"))
	tx.Rollback()

	s := db.Stats()
	if s.Commits != 5 {
		t.Fatalf("Commits = %d, want 5", s.Commits)
	}
	if s.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", s.Aborts)
	}
	if s.OpenTxns != 0 {
		t.Fatalf("OpenTxns = %d, want 0", s.OpenTxns)
	}
	if s.LogAppends == 0 {
		t.Fatal("LogAppends = 0")
	}
	if s.MeanCommitBatch() < 0 {
		t.Fatal("negative mean commit batch")
	}
}
