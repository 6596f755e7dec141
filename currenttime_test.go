package immortaldb

import (
	"errors"
	"fmt"
	"testing"
)

func TestCurrentTimeFixesCommitTimestamp(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})

	tx, _ := db.Begin(Serializable)
	ct, err := tx.CurrentTime()
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent within the transaction.
	ct2, _ := tx.CurrentTime()
	if !ct.Equal(ct2) {
		t.Fatalf("CURRENT TIME moved: %v -> %v", ct, ct2)
	}
	if err := tx.Set(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The committed version carries exactly the pre-chosen timestamp.
	hist, _ := db.History(tbl, []byte("k"))
	if len(hist) != 1 || !hist[0].Time.Equal(ct) {
		t.Fatalf("version time %v, CURRENT TIME %v", hist[0].Time, ct)
	}
}

func TestCurrentTimeOrderingViolationAborts(t *testing.T) {
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	set(t, db, tbl, "other", "v0")

	tx, _ := db.Begin(Serializable)
	if _, err := tx.CurrentTime(); err != nil {
		t.Fatal(err)
	}
	// A different transaction commits AFTER the fixed timestamp.
	set(t, db, tbl, "hot", "newer")

	// Reading the newer version now contradicts the fixed timestamp.
	_, _, err := tx.Get(tbl, []byte("hot"))
	if !errors.Is(err, ErrTimestampOrder) {
		t.Fatalf("read of newer version: %v", err)
	}
	// Writing over it is equally forbidden.
	err = tx.Set(tbl, []byte("hot"), []byte("mine"))
	if !errors.Is(err, ErrTimestampOrder) {
		t.Fatalf("write over newer version: %v", err)
	}
	// Old data remains accessible.
	if v, ok := get(t, tx, tbl, "other"); !ok || v != "v0" {
		t.Fatalf("old data: %q, %v", v, ok)
	}
	tx.Rollback()
}

func TestCurrentTimeCommitOrderStaysConsistent(t *testing.T) {
	// A CURRENT TIME transaction commits after later-stamped transactions;
	// historical queries must still see a coherent database: at the fixed
	// time the transaction's writes appear, ordered before everything that
	// committed with larger timestamps.
	db, _ := openTestDB(t, nil)
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})

	early, _ := db.Begin(Serializable)
	ct, _ := early.CurrentTime()
	if err := early.Set(tbl, []byte("a"), []byte("early")); err != nil {
		t.Fatal(err)
	}
	// Unrelated transactions commit in between with larger timestamps.
	for i := 0; i < 10; i++ {
		set(t, db, tbl, fmt.Sprintf("pad%d", i), "x")
	}
	if err := early.Commit(); err != nil {
		t.Fatal(err)
	}
	// As of the fixed time: the early write is visible, the pads are not.
	tx, _ := db.BeginAsOf(ct)
	if v, ok := get(t, tx, tbl, "a"); !ok || v != "early" {
		t.Fatalf("a as of fixed time: %q, %v", v, ok)
	}
	if _, ok := get(t, tx, tbl, "pad5"); ok {
		t.Fatal("later-stamped pad visible at the earlier fixed time")
	}
	tx.Commit()
	// And timestamps across the table are unique and internally ordered.
	hist, _ := db.History(tbl, []byte("a"))
	if len(hist) != 1 {
		t.Fatalf("history = %d", len(hist))
	}
}

func TestCurrentTimeWithHeavySplitting(t *testing.T) {
	// Time splits must never move their boundary past a reserved timestamp:
	// the reserved-time versions must still land inside current pages. (Like
	// a long-running snapshot pinning versions, a long-running CURRENT TIME
	// transaction pins the time-split boundary; key splits still proceed.)
	db, _ := openTestDB(t, func(o *Options) { o.PageSize = 2048 })
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	for i := 0; i < 200; i++ {
		set(t, db, tbl, fmt.Sprintf("k%02d", i%8), fmt.Sprintf("v%d", i))
	}
	tx, _ := db.Begin(Serializable)
	ct, _ := tx.CurrentTime()
	if err := tx.Set(tbl, []byte("reserved"), []byte("val")); err != nil {
		t.Fatal(err)
	}
	// Hammer other keys to force splits while the reservation is pending.
	for i := 0; i < 150; i++ {
		set(t, db, tbl, fmt.Sprintf("k%02d", i%8), fmt.Sprintf("post-%d", i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.GetAsOf(tbl, []byte("reserved"), ct)
	if err != nil || !ok || string(v) != "val" {
		t.Fatalf("reserved-time read: %q, %v, %v", v, ok, err)
	}
	// With the reservation released, history truncation resumes.
	for i := 0; i < 150; i++ {
		set(t, db, tbl, fmt.Sprintf("k%02d", i%8), fmt.Sprintf("late-%d", i))
	}
	if db.TreeStats(tbl).TimeSplits == 0 {
		t.Fatal("no time splits at all")
	}
}

func TestCurrentTimeModeRestrictions(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.CreateTable("t", TableOptions{Immortal: true})
	si, _ := db.Begin(SnapshotIsolation)
	if _, err := si.CurrentTime(); err == nil {
		t.Fatal("CURRENT TIME allowed under snapshot isolation")
	}
	si.Rollback()
	old, _ := db.BeginAsOfTS(db.Now())
	ct, err := old.CurrentTime()
	if err != nil {
		t.Fatal(err)
	}
	if !ct.Equal(db.Now().Time()) {
		t.Fatalf("AS OF CURRENT TIME = %v", ct)
	}
	old.Commit()
}
