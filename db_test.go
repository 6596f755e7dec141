package immortaldb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"immortaldb/internal/itime"
)

// testClock is a deterministic clock advancing a tick every few reads so the
// sequence-number machinery is exercised.
func testClock() *itime.SimClock {
	c := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	c.AutoStep = 1
	c.AutoEvery = 3
	return c
}

func testOpts(extra func(*Options)) *Options {
	o := &Options{
		PageSize:    1024, // small pages: frequent splits in tests
		CacheFrames: 64,
		NoSync:      true,
		Clock:       testClock(),
	}
	if extra != nil {
		extra(o)
	}
	return o
}

func openTestDB(t *testing.T, extra func(*Options)) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, testOpts(extra))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !db.closed {
			db.Close()
		}
	})
	return db, dir
}

func set(t *testing.T, db *DB, tbl *Table, key, val string) Timestamp {
	t.Helper()
	tx, err := db.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(tbl, []byte(key), []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db.Now()
}

func del(t *testing.T, db *DB, tbl *Table, key string) Timestamp {
	t.Helper()
	tx, _ := db.Begin(Serializable)
	if err := tx.Delete(tbl, []byte(key)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db.Now()
}

func get(t *testing.T, tx *Tx, tbl *Table, key string) (string, bool) {
	t.Helper()
	v, ok, err := tx.Get(tbl, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

func TestBasicCRUD(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, err := db.CreateTable("objects", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	set(t, db, tbl, "a", "1")
	set(t, db, tbl, "b", "2")
	set(t, db, tbl, "a", "3")

	tx, _ := db.Begin(Serializable)
	if v, ok := get(t, tx, tbl, "a"); !ok || v != "3" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := get(t, tx, tbl, "b"); !ok || v != "2" {
		t.Fatalf("b = %q, %v", v, ok)
	}
	if _, ok := get(t, tx, tbl, "zzz"); ok {
		t.Fatal("ghost key found")
	}
	tx.Commit()

	del(t, db, tbl, "a")
	tx2, _ := db.Begin(Serializable)
	if _, ok := get(t, tx2, tbl, "a"); ok {
		t.Fatal("deleted key still visible")
	}
	tx2.Commit()
}

func TestAsOfQueries(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("objects", TableOptions{Immortal: true})
	t1 := set(t, db, tbl, "car", "pos-1")
	t2 := set(t, db, tbl, "car", "pos-2")
	t3 := del(t, db, tbl, "car")
	t4 := set(t, db, tbl, "car", "pos-3")

	cases := []struct {
		at    Timestamp
		want  string
		found bool
	}{
		{t1, "pos-1", true},
		{t2, "pos-2", true},
		{t3, "", false},
		{t4, "pos-3", true},
	}
	for i, c := range cases {
		tx, err := db.BeginAsOfTS(c.at)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := tx.Get(tbl, []byte("car"))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.found || (ok && string(v) != c.want) {
			t.Fatalf("case %d: got (%q, %v), want (%q, %v)", i, v, ok, c.want, c.found)
		}
		// Writes must be rejected.
		if err := tx.Set(tbl, []byte("x"), []byte("y")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("write in AS OF tx: %v", err)
		}
		tx.Commit()
	}
	// Before the beginning of time: nothing.
	tx, _ := db.BeginAsOfTS(Timestamp{Wall: 1})
	if _, ok, _ := tx.Get(tbl, []byte("car")); ok {
		t.Fatal("found record before it existed")
	}
	tx.Commit()
}

func TestAsOfWallClockAPI(t *testing.T) {
	clock := testClock()
	db, _ := openTestDB(t, func(o *Options) { o.Clock = clock })
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "old")
	tMid := db.Now().Time()
	clock.Advance(time.Second)
	set(t, db, tbl, "k", "new")

	v, ok, err := db.GetAsOf(tbl, []byte("k"), tMid)
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("GetAsOf(mid) = %q, %v, %v", v, ok, err)
	}
	v, ok, err = db.GetAsOf(tbl, []byte("k"), tMid.Add(2*time.Second))
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("GetAsOf(now) = %q, %v, %v", v, ok, err)
	}
}

func TestHistoryTimeTravelEngine(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "v1")
	set(t, db, tbl, "k", "v2")
	del(t, db, tbl, "k")
	set(t, db, tbl, "k", "v3")

	hist, err := db.History(tbl, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history length = %d", len(hist))
	}
	if string(hist[0].Value) != "v3" || hist[0].Deleted {
		t.Fatalf("hist[0] = %+v", hist[0])
	}
	if !hist[1].Deleted {
		t.Fatalf("hist[1] should be the delete: %+v", hist[1])
	}
	if string(hist[2].Value) != "v2" || string(hist[3].Value) != "v1" {
		t.Fatalf("old versions wrong: %+v %+v", hist[2], hist[3])
	}
	// Replaying an exact historical timestamp sees that state.
	tx, _ := db.BeginAsOfTS(hist[2].TS)
	if v, ok := get(t, tx, tbl, "k"); !ok || v != "v2" {
		t.Fatalf("replay hist[2] = %q, %v", v, ok)
	}
	tx.Commit()

	// History on a conventional table fails.
	conv, _ := db.CreateTable("conv", TableOptions{})
	if _, err := db.History(conv, []byte("k")); !errors.Is(err, ErrNotImmortal) {
		t.Fatalf("history on conventional table: %v", err)
	}
}

func TestRollback(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "stable", "yes")

	tx, _ := db.Begin(Serializable)
	tx.Set(tbl, []byte("stable"), []byte("overwritten"))
	tx.Set(tbl, []byte("fresh"), []byte("doomed"))
	tx.Delete(tbl, []byte("stable"))
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin(Serializable)
	if v, ok := get(t, tx2, tbl, "stable"); !ok || v != "yes" {
		t.Fatalf("stable = %q, %v after rollback", v, ok)
	}
	if _, ok := get(t, tx2, tbl, "fresh"); ok {
		t.Fatal("rolled-back insert visible")
	}
	tx2.Commit()
	// History must contain no trace of the rolled-back writes.
	hist, _ := db.History(tbl, []byte("stable"))
	if len(hist) != 1 {
		t.Fatalf("history after rollback = %+v", hist)
	}
}

func TestUpdateViewHelpers(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	if err := db.Update(func(tx *Tx) error {
		return tx.Set(tbl, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		v, ok, err := tx.Get(tbl, []byte("k"))
		if err != nil || !ok || string(v) != "v" {
			return fmt.Errorf("got %q %v %v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Errors roll back.
	boom := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		tx.Set(tbl, []byte("k"), []byte("never"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		if v, _, _ := tx.Get(tbl, []byte("k")); string(v) != "v" {
			t.Fatalf("k = %q after failed update", v)
		}
		return nil
	})
}

func TestSerializableBlocksConflicts(t *testing.T) {
	clock := testClock()
	db, _ := openTestDB(t, func(o *Options) {
		o.Clock = clock
		o.LockTimeout = 100 * time.Millisecond
	})
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "v0")

	tx1, _ := db.Begin(Serializable)
	if err := tx1.Set(tbl, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// A second writer must block and time out.
	tx2, _ := db.Begin(Serializable)
	blocked := make(chan error, 1)
	go func() { blocked <- tx2.Set(tbl, []byte("k"), []byte("v2")) }()
	waitParked(t, "immortaldb/internal/lock.(*Manager).Acquire")
	clock.Advance(100 * time.Millisecond)
	if err := awaitResult(t, blocked, "conflicting write"); err == nil {
		t.Fatal("conflicting write did not block")
	}
	tx2.Rollback()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := db.Begin(Serializable)
	if v, ok := get(t, tx3, tbl, "k"); !ok || v != "v1" {
		t.Fatalf("k = %q, %v", v, ok)
	}
	tx3.Commit()
}

func TestSnapshotIsolationReadsDontBlock(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "committed")

	writer, _ := db.Begin(Serializable)
	if err := writer.Set(tbl, []byte("k"), []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	// Snapshot reader proceeds without waiting and sees the committed state.
	reader, _ := db.Begin(SnapshotIsolation)
	done := make(chan struct{})
	var v string
	var ok bool
	go func() {
		v, ok = get(t, reader, tbl, "k")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read blocked on a writer")
	}
	if !ok || v != "committed" {
		t.Fatalf("snapshot read = %q, %v", v, ok)
	}
	writer.Commit()
	// Still the snapshot value, even after the writer commits.
	if v, ok := get(t, reader, tbl, "k"); !ok || v != "committed" {
		t.Fatalf("post-commit snapshot read = %q, %v", v, ok)
	}
	reader.Commit()
}

func TestSnapshotFirstCommitterWins(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "v0")

	tx1, _ := db.Begin(SnapshotIsolation)
	tx2, _ := db.Begin(SnapshotIsolation)
	if err := tx1.Set(tbl, []byte("k"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// tx2's snapshot predates tx1's commit: its write must conflict.
	err := tx2.Set(tbl, []byte("k"), []byte("second"))
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	tx2.Rollback()
}

func TestSnapshotSeesOwnWrites(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "old")
	tx, _ := db.Begin(SnapshotIsolation)
	if err := tx.Set(tbl, []byte("k"), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, tx, tbl, "k"); !ok || v != "mine" {
		t.Fatalf("own write = %q, %v", v, ok)
	}
	if err := tx.Set(tbl, []byte("new"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, tx, tbl, "new"); !ok || v != "fresh" {
		t.Fatalf("own insert = %q, %v", v, ok)
	}
	tx.Commit()
}

func TestScanVisibility(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 20; i++ {
		set(t, db, tbl, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	mid := db.Now()
	for i := 0; i < 20; i += 2 {
		del(t, db, tbl, fmt.Sprintf("k%02d", i))
	}

	count := func(tx *Tx) int {
		n := 0
		if err := tx.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	tx, _ := db.Begin(Serializable)
	if n := count(tx); n != 10 {
		t.Fatalf("current scan = %d", n)
	}
	tx.Commit()
	old, _ := db.BeginAsOfTS(mid)
	if n := count(old); n != 20 {
		t.Fatalf("as-of scan = %d", n)
	}
	old.Commit()
}

func TestConventionalTable(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, err := db.CreateTable("conv", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		set(t, db, tbl, fmt.Sprintf("k%03d", i), "v0")
	}
	set(t, db, tbl, "k005", "updated")
	del(t, db, tbl, "k006")

	tx, _ := db.Begin(Serializable)
	if v, ok := get(t, tx, tbl, "k005"); !ok || v != "updated" {
		t.Fatalf("k005 = %q, %v", v, ok)
	}
	if _, ok := get(t, tx, tbl, "k006"); ok {
		t.Fatal("deleted key visible")
	}
	n := 0
	tx.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 99 {
		t.Fatalf("scan = %d", n)
	}
	tx.Commit()
	// AS OF on a conventional table fails.
	old, _ := db.BeginAsOfTS(db.Now())
	if _, _, err := old.Get(tbl, []byte("k005")); !errors.Is(err, ErrNotImmortal) {
		t.Fatalf("as-of on conventional: %v", err)
	}
	old.Commit()
	// Rollback restores old values on conventional tables too.
	txr, _ := db.Begin(Serializable)
	txr.Set(tbl, []byte("k010"), []byte("scratch"))
	txr.Delete(tbl, []byte("k011"))
	txr.Set(tbl, []byte("brandnew"), []byte("x"))
	txr.Rollback()
	tx2, _ := db.Begin(Serializable)
	if v, ok := get(t, tx2, tbl, "k010"); !ok || v != "v0" {
		t.Fatalf("k010 after rollback = %q, %v", v, ok)
	}
	if _, ok := get(t, tx2, tbl, "k011"); !ok {
		t.Fatal("k011 lost after rollback")
	}
	if _, ok := get(t, tx2, tbl, "brandnew"); ok {
		t.Fatal("rolled-back insert visible")
	}
	tx2.Commit()
}

func TestPersistenceAcrossCleanReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(nil)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	var times []Timestamp
	for i := 0; i < 50; i++ {
		times = append(times, set(t, db, tbl, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%d", i)))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db2.Begin(Serializable)
	if v, ok := get(t, tx, tbl2, "k05"); !ok || v != "v45" {
		t.Fatalf("k05 = %q, %v", v, ok)
	}
	tx.Commit()
	// Historical state also survives: just before write 15 (k05 <- v15),
	// k05 still holds v5 from write 5.
	old, _ := db2.BeginAsOfTS(times[14])
	if v, ok := get(t, old, tbl2, "k05"); !ok || v != "v5" {
		t.Fatalf("as-of k05 = %q, %v", v, ok)
	}
	old.Commit()
	// New transactions never reuse timestamps.
	newTS := set(t, db2, tbl2, "k00", "post-reopen")
	if !newTS.After(times[len(times)-1]) {
		t.Fatalf("timestamp went backwards after reopen: %v <= %v", newTS, times[len(times)-1])
	}
}

func TestCrashRecoveryCommittedSurvive(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(nil)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	var times []Timestamp
	for i := 0; i < 120; i++ { // enough to split pages
		times = append(times, set(t, db, tbl, fmt.Sprintf("k%02d", i%7), fmt.Sprintf("v%d", i)))
	}
	db.crash() // no checkpoint, dirty pages lost, PTT uncommitted

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	tx, _ := db2.Begin(Serializable)
	for k := 0; k < 7; k++ {
		key := fmt.Sprintf("k%02d", k)
		wantIdx := -1
		for i := 119; i >= 0; i-- {
			if i%7 == k {
				wantIdx = i
				break
			}
		}
		if v, ok := get(t, tx, tbl2, key); !ok || v != fmt.Sprintf("v%d", wantIdx) {
			t.Fatalf("%s = %q, %v (want v%d)", key, v, ok, wantIdx)
		}
	}
	tx.Commit()
	// Historical reads work after recovery: lazy timestamping re-runs from
	// the PTT entries restored by commit-record redo.
	old, _ := db2.BeginAsOfTS(times[30])
	if v, ok := get(t, old, tbl2, fmt.Sprintf("k%02d", 30%7)); !ok || v != "v30" {
		t.Fatalf("as-of after crash = %q, %v", v, ok)
	}
	old.Commit()
}

func TestCrashRecoveryUncommittedRolledBack(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(nil)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "committed", "yes")

	// An in-flight transaction whose writes reached the (flushed) log but
	// never committed.
	tx, _ := db.Begin(Serializable)
	tx.Set(tbl, []byte("committed"), []byte("loser-overwrite"))
	tx.Set(tbl, []byte("loser-key"), []byte("loser"))
	db.log.Flush() // force the writes into the durable log
	db.crash()

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	tx2, _ := db2.Begin(Serializable)
	if v, ok := get(t, tx2, tbl2, "committed"); !ok || v != "yes" {
		t.Fatalf("committed = %q, %v", v, ok)
	}
	if _, ok := get(t, tx2, tbl2, "loser-key"); ok {
		t.Fatal("loser write survived recovery")
	}
	tx2.Commit()
	hist, _ := db2.History(tbl2, []byte("committed"))
	if len(hist) != 1 {
		t.Fatalf("history polluted by loser: %+v", hist)
	}
}

func TestCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(nil)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 60; i++ {
		set(t, db, tbl, fmt.Sprintf("k%d", i%5), fmt.Sprintf("pre-%d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mid := db.Now()
	for i := 0; i < 60; i++ {
		set(t, db, tbl, fmt.Sprintf("k%d", i%5), fmt.Sprintf("post-%d", i))
	}
	db.crash()

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	tx, _ := db2.Begin(Serializable)
	if v, ok := get(t, tx, tbl2, "k4"); !ok || v != "post-59" {
		t.Fatalf("k4 = %q, %v", v, ok)
	}
	tx.Commit()
	old, _ := db2.BeginAsOfTS(mid)
	if v, ok := get(t, old, tbl2, "k4"); !ok || v != "pre-59" {
		t.Fatalf("as-of mid k4 = %q, %v", v, ok)
	}
	old.Commit()
}

func TestRepeatedCrashes(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(nil)
	total := 0
	for round := 0; round < 4; round++ {
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var tbl *Table
		if round == 0 {
			tbl, err = db.CreateTable("t", TableOptions{Immortal: true})
		} else {
			tbl, err = db.Table("t")
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 30; i++ {
			set(t, db, tbl, fmt.Sprintf("k%d", total%6), fmt.Sprintf("v%d", total))
			total++
		}
		db.crash()
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.Table("t")
	tx, _ := db.Begin(Serializable)
	n := 0
	tx.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 6 {
		t.Fatalf("scan after %d crashes = %d keys", 4, n)
	}
	if v, ok := get(t, tx, tbl, "k5"); !ok || v != fmt.Sprintf("v%d", total-1) {
		t.Fatalf("k5 = %q, %v", v, ok)
	}
	tx.Commit()
	// Full history intact across all crashes.
	hist, err := db.History(tbl, []byte("k0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 20 { // 120 writes over 6 keys
		t.Fatalf("history of k0 = %d versions, want 20", len(hist))
	}
}

func TestPTTGarbageCollection(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 50; i++ {
		set(t, db, tbl, fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}
	if db.Stats().PTTEntries == 0 {
		t.Fatal("no PTT entries after 50 immortal commits")
	}
	// Checkpoint 1 flushes stamped pages and advances the watermark;
	// checkpoint 2 collects entries completed before checkpoint 1.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stats := db.Stats()
	if stats.PTTEntries > 5 {
		t.Fatalf("PTT entries after GC = %d (deletes=%d)", stats.PTTEntries, stats.Stamp.PTTDeletes)
	}
	if stats.Stamp.PTTDeletes == 0 {
		t.Fatal("GC deleted nothing")
	}
}

func TestPTTGCDisabled(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.DisablePTTGC = true })
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 50; i++ {
		set(t, db, tbl, "k", fmt.Sprintf("v%d", i))
	}
	db.Checkpoint()
	db.Checkpoint()
	if n := db.Stats().PTTEntries; n != 50 {
		t.Fatalf("PTT entries with GC off = %d, want 50", n)
	}
}

func TestEagerTimestampingMode(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.EagerTimestamping = true })
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	var times []Timestamp
	for i := 0; i < 60; i++ {
		times = append(times, set(t, db, tbl, fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)))
	}
	// Eager mode never populates the PTT.
	if n := db.Stats().PTTEntries; n != 0 {
		t.Fatalf("eager mode PTT entries = %d", n)
	}
	// Queries behave identically.
	old, _ := db.BeginAsOfTS(times[17])
	if v, ok := get(t, old, tbl, fmt.Sprintf("k%d", 17%4)); !ok || v != "v17" {
		t.Fatalf("eager as-of = %q, %v", v, ok)
	}
	old.Commit()
	hist, _ := db.History(tbl, []byte("k0"))
	if len(hist) != 15 {
		t.Fatalf("eager history = %d versions", len(hist))
	}
	for _, h := range hist {
		if h.Pending {
			t.Fatal("eager mode left a pending version")
		}
	}
}

func TestEagerModeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(func(o *Options) { o.EagerTimestamping = true })
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	var mid Timestamp
	for i := 0; i < 40; i++ {
		ts := set(t, db, tbl, "k", fmt.Sprintf("v%d", i))
		if i == 20 {
			mid = ts
		}
	}
	db.crash()
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	// Eager stamps were logged (TypeStamp) and must be redone.
	old, _ := db2.BeginAsOfTS(mid)
	if v, ok := get(t, old, tbl2, "k"); !ok || v != "v20" {
		t.Fatalf("eager crash as-of = %q, %v", v, ok)
	}
	old.Commit()
}

func TestTSBIndexMode(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.HistoricalIndex = IndexTSB })
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	var times []Timestamp
	for i := 0; i < 200; i++ {
		times = append(times, set(t, db, tbl, fmt.Sprintf("k%d", i%6), fmt.Sprintf("v%d", i)))
	}
	for probe := 0; probe < 200; probe += 13 {
		old, _ := db.BeginAsOfTS(times[probe])
		key := fmt.Sprintf("k%d", probe%6)
		if v, ok := get(t, old, tbl, key); !ok || v != fmt.Sprintf("v%d", probe) {
			t.Fatalf("TSB as-of %d: %q, %v", probe, v, ok)
		}
		old.Commit()
	}
}

// TestIndexModeSurvivesReopen reopens a table under the other
// HistoricalIndex setting, in both directions: the table must keep reading
// its history in the mode it was created in, so every AS OF probe still
// answers.
func TestIndexModeSurvivesReopen(t *testing.T) {
	for _, c := range []struct {
		name           string
		create, reopen IndexMode
	}{{"chain-as-tsb", IndexChain, IndexTSB}, {"tsb-as-chain", IndexTSB, IndexChain}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, testOpts(func(o *Options) { o.HistoricalIndex = c.create }))
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
			var times []Timestamp
			for i := 0; i < 300; i++ {
				times = append(times, set(t, db, tbl, fmt.Sprintf("k%d", i%6), fmt.Sprintf("v%d", i)))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(dir, testOpts(func(o *Options) { o.HistoricalIndex = c.reopen }))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, _ = db.Table("t")
			wrong := 0
			for probe := range times {
				old, _ := db.BeginAsOfTS(times[probe])
				if v, ok := get(t, old, tbl, fmt.Sprintf("k%d", probe%6)); !ok || v != fmt.Sprintf("v%d", probe) {
					wrong++
				}
				old.Commit()
			}
			if wrong > 0 {
				t.Fatalf("%d of %d AS OF probes wrong after the reopen", wrong, len(times))
			}
		})
	}
}

func TestCheckpointEveryN(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.CheckpointEveryN = 10 })
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 35; i++ {
		set(t, db, tbl, "k", fmt.Sprintf("v%d", i))
	}
	if db.log.Checkpoint() == 0 {
		t.Fatal("no automatic checkpoint after 35 txns with CheckpointEveryN=10")
	}
}

func TestTxDoneErrors(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	tx, _ := db.Begin(Serializable)
	tx.Commit()
	if err := tx.Set(tbl, []byte("k"), []byte("v")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("set after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
	if err := tx.Set(tbl, nil, []byte("v")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("empty key error order: %v", err)
	}
}

func TestTimestampOrderAgreesWithCommitOrder(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	var prev Timestamp
	for i := 0; i < 200; i++ {
		ts := set(t, db, tbl, "k", fmt.Sprintf("v%d", i))
		if !ts.After(prev) {
			t.Fatalf("commit %d: timestamp %v not after %v", i, ts, prev)
		}
		prev = ts
	}
	// Many commits share a wall tick (AutoEvery=3): sequence numbers did the
	// disambiguation.
	hist, _ := db.History(tbl, []byte("k"))
	sharedTick := false
	for i := 1; i < len(hist); i++ {
		if hist[i].TS.Wall == hist[i-1].TS.Wall {
			sharedTick = true
			break
		}
	}
	if !sharedTick {
		t.Fatal("test clock never produced same-tick commits; SN path untested")
	}
}

func TestStatsPopulated(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 30; i++ {
		set(t, db, tbl, fmt.Sprintf("k%d", i), "v")
	}
	tx, _ := db.Begin(Serializable)
	tx.Set(tbl, []byte("x"), []byte("y"))
	tx.Rollback()
	s := db.Stats()
	if s.Commits != 30 || s.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d", s.Commits, s.Aborts)
	}
	if s.Stamp.PTTPuts == 0 || s.LogBytes == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
}

func TestSameTxnOverwriteCollapsesVersions(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "committed")

	tx, _ := db.Begin(Serializable)
	for i := 0; i < 500; i++ { // must not overflow any page
		if err := tx.Set(tbl, []byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Delete(tbl, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(tbl, []byte("k"), []byte("final")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// One transaction contributes exactly one version, no matter how many
	// times it rewrote the record.
	hist, _ := db.History(tbl, []byte("k"))
	if len(hist) != 2 {
		t.Fatalf("history = %d versions, want 2", len(hist))
	}
	if string(hist[0].Value) != "final" {
		t.Fatalf("newest = %q", hist[0].Value)
	}
}

func TestSameTxnOverwriteRollback(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "committed")

	tx, _ := db.Begin(Serializable)
	tx.Set(tbl, []byte("k"), []byte("a"))
	tx.Set(tbl, []byte("k"), []byte("b"))
	tx.Delete(tbl, []byte("k"))
	tx.Set(tbl, []byte("k"), []byte("c"))
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin(Serializable)
	if v, ok := get(t, tx2, tbl, "k"); !ok || v != "committed" {
		t.Fatalf("k after rollback = %q, %v", v, ok)
	}
	tx2.Commit()
	hist, _ := db.History(tbl, []byte("k"))
	if len(hist) != 1 {
		t.Fatalf("history after rollback = %d versions", len(hist))
	}
}

func TestSameTxnOverwriteCrashUndo(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(nil)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "k", "committed")
	tx, _ := db.Begin(Serializable)
	tx.Set(tbl, []byte("k"), []byte("a"))
	tx.Set(tbl, []byte("k"), []byte("b"))
	db.log.Flush()
	db.crash()

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	tx2, _ := db2.Begin(Serializable)
	if v, ok := get(t, tx2, tbl2, "k"); !ok || v != "committed" {
		t.Fatalf("k after crash undo = %q, %v", v, ok)
	}
	tx2.Commit()
}
