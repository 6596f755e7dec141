package immortaldb

// AS OF boundary semantics, pinned with a fully deterministic clock:
//
//   - a query exactly AT a commit timestamp sees that commit (inclusive);
//   - commits sharing one 20 ms wall tick are distinguished by the sequence
//     number, and an AS OF between two same-tick commits sees exactly the
//     earlier one;
//   - an AS OF before the first commit sees an empty table (not an error);
//
// and all of the above survive a close/reopen cycle (recovery rebuilds the
// same history).

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"immortaldb/internal/itime"
)

func commitKV(t *testing.T, db *DB, tbl *Table, key, val string) Timestamp {
	t.Helper()
	if err := db.Update(func(tx *Tx) error {
		return tx.Set(tbl, []byte(key), []byte(val))
	}); err != nil {
		t.Fatal(err)
	}
	return db.Now()
}

func stateAsOf(t *testing.T, db *DB, tbl *Table, at Timestamp) map[string]string {
	t.Helper()
	tx, err := db.BeginAsOfTS(at)
	if err != nil {
		t.Fatalf("BeginAsOfTS(%v): %v", at, err)
	}
	defer tx.Commit()
	got := map[string]string{}
	if err := tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("Scan AS OF %v: %v", at, err)
	}
	return got
}

func wantState(t *testing.T, db *DB, tbl *Table, at Timestamp, label string, want map[string]string) {
	t.Helper()
	got := stateAsOf(t, db, tbl, at)
	if len(got) != len(want) {
		t.Fatalf("%s (AS OF %v): got %v, want %v", label, at, got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s (AS OF %v): key %s = %q, want %q", label, at, k, got[k], v)
		}
	}
}

func TestAsOfBoundaries(t *testing.T) {
	dir := t.TempDir()
	// No AutoStep: the clock moves only when the test says so, making every
	// commit timestamp — wall tick AND sequence number — predictable.
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	opts := testOpts(func(o *Options) { o.Clock = clock })

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}

	// a and b commit inside one wall tick; c lands on a later tick.
	tsA := commitKV(t, db, tbl, "k", "a")
	tsB := commitKV(t, db, tbl, "k", "b")
	clock.Advance(5 * itime.TickDuration)
	tsC := commitKV(t, db, tbl, "k", "c")

	if tsA.Wall != tsB.Wall {
		t.Fatalf("setup: a (%v) and b (%v) were meant to share a wall tick", tsA, tsB)
	}
	if tsB.Seq != tsA.Seq+1 {
		t.Fatalf("setup: same-tick commits must differ by one sequence number: %v then %v", tsA, tsB)
	}
	if tsC.Wall <= tsB.Wall || tsC.Seq != 0 {
		t.Fatalf("setup: c (%v) was meant to start a fresh tick after %v", tsC, tsB)
	}

	check := func(db *DB, tbl *Table) {
		// Exactly at each commit timestamp: inclusive.
		wantState(t, db, tbl, tsA, "at first commit", map[string]string{"k": "a"})
		wantState(t, db, tbl, tsB, "at same-tick successor", map[string]string{"k": "b"})
		wantState(t, db, tbl, tsC, "at later-tick commit", map[string]string{"k": "c"})
		// Between the same-tick pair there is no representable timestamp
		// (they differ by exactly one sequence number); between b and c there
		// are both same-tick (higher Seq) and later-tick instants.
		wantState(t, db, tbl, Timestamp{Wall: tsB.Wall, Seq: tsB.Seq + 9}, "same tick after b", map[string]string{"k": "b"})
		wantState(t, db, tbl, Timestamp{Wall: tsC.Wall - 1, Seq: 0}, "tick before c", map[string]string{"k": "b"})
		// Before the first commit: an empty table, not an error.
		wantState(t, db, tbl, Timestamp{Wall: tsA.Wall - 1, Seq: 0}, "before first commit", map[string]string{})
		wantState(t, db, tbl, Timestamp{Wall: tsA.Wall, Seq: 0}, "first instant of first tick", map[string]string{"k": "a"})
	}
	check(db, tbl)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err = db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	check(db, tbl)
}

// TestAsOfExactUnderConcurrentSplits pins the Section 3.3 time-split rule
// under the two-phase commit pipeline, with no crash involved: a version may
// stay TID-marked on the current page across a time split only if its commit
// time is not earlier than the split time. Several writers on disjoint keys
// fill 1 KB pages so time splits constantly race commits that have drawn a
// timestamp but not yet published it; AS OF each acknowledged transaction's
// own CommitTS must then return exactly what that transaction wrote.
func TestAsOfExactUnderConcurrentSplits(t *testing.T) {
	const (
		writers = 4
		rounds  = 60
		txns    = 60
		keys    = 3
	)
	type ack struct {
		ts       Timestamp
		key, val string
	}
	for round := 0; round < rounds; round++ {
		db, _ := openTestDB(t, nil)
		tbl, err := db.CreateTable("t", TableOptions{Immortal: true})
		if err != nil {
			t.Fatal(err)
		}
		acks := make([][]ack, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < txns; i++ {
					key := fmt.Sprintf("w%d.k%d", w, i%keys)
					val := fmt.Sprintf("r%d.t%d.%s", round, i, strings.Repeat("v", 40+i%30))
					tx, err := db.Begin(Serializable)
					if err != nil {
						t.Errorf("begin: %v", err)
						return
					}
					if err := tx.Set(tbl, []byte(key), []byte(val)); err != nil {
						t.Errorf("set: %v", err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					acks[w] = append(acks[w], ack{tx.CommitTS(), key, val})
				}
			}(w)
		}
		wg.Wait()
		for w := range acks {
			for _, a := range acks[w] {
				tx, err := db.BeginAsOfTS(a.ts)
				if err != nil {
					t.Fatal(err)
				}
				got, found, err := tx.Get(tbl, []byte(a.key))
				tx.Commit()
				if err != nil || !found || string(got) != a.val {
					t.Fatalf("round %d: AS OF %v, its own commit timestamp, %s = %.20q (found=%v, err=%v), want %.20q",
						round, a.ts, a.key, got, found, err, a.val)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
