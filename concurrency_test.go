package immortaldb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentWritersAndReaders hammers the engine from many goroutines:
// serializable writers on overlapping key ranges (expecting occasional
// deadlock aborts), snapshot readers verifying per-key monotonic version
// counters, AS OF readers over past states, and periodic checkpoints — all
// meant to run under -race.
func TestConcurrentWritersAndReaders(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.PageSize = 2048
		o.Clock = pumpedClock(t)
		o.LockTimeout = 5 * time.Second
	})
	tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
	const keys = 24
	for k := 0; k < keys; k++ {
		set(t, db, tbl, fmt.Sprintf("k%02d", k), "0")
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		commits   atomic.Int64
		conflicts atomic.Int64
		failures  atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
		stop.Store(true)
	}

	// Writers: each picks two keys and bumps both in one transaction.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load() && i < 250; i++ {
				a := fmt.Sprintf("k%02d", (w*7+i)%keys)
				b := fmt.Sprintf("k%02d", (w*7+i+3)%keys)
				tx, err := db.Begin(Serializable)
				if err != nil {
					fail("begin: %v", err)
					return
				}
				err = func() error {
					for _, k := range []string{a, b} {
						v, _, err := tx.Get(tbl, []byte(k))
						if err != nil {
							return err
						}
						if err := tx.Set(tbl, []byte(k), append(v, 'x')); err != nil {
							return err
						}
					}
					return nil
				}()
				if err != nil {
					tx.Rollback()
					conflicts.Add(1) // deadlock or lock timeout: retryable
					continue
				}
				if err := tx.Commit(); err != nil {
					fail("commit: %v", err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}

	// Snapshot readers: every snapshot must be internally consistent (no
	// torn two-key writes: both keys of a writer's pair move together only
	// within a transaction, so their length difference is bounded by
	// concurrent writers).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load() && i < 400; i++ {
				tx, err := db.Begin(SnapshotIsolation)
				if err != nil {
					fail("snap begin: %v", err)
					return
				}
				n := 0
				err = tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
					n++
					return true
				})
				tx.Commit()
				if err != nil {
					fail("snap scan: %v", err)
					return
				}
				if n != keys {
					fail("snapshot scan saw %d keys, want %d", n, keys)
					return
				}
			}
		}()
	}

	// AS OF reader walking historical states.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load() && i < 200; i++ {
			tx, err := db.BeginAsOfTS(db.Now())
			if err != nil {
				fail("asof begin: %v", err)
				return
			}
			if _, _, err := tx.Get(tbl, []byte("k00")); err != nil {
				fail("asof get: %v", err)
				return
			}
			tx.Commit()
		}
	}()

	// Checkpointer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load() && i < 20; i++ {
			if err := db.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				fail("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		return
	}
	t.Logf("commits=%d conflicts=%d", commits.Load(), conflicts.Load())
	if commits.Load() == 0 {
		t.Fatal("no writer ever committed")
	}
	// Total version count across keys equals 2 per committed writer txn
	// (initial inserts excluded) — nothing lost, nothing duplicated.
	total := 0
	for k := 0; k < keys; k++ {
		hist, err := db.History(tbl, []byte(fmt.Sprintf("k%02d", k)))
		if err != nil {
			t.Fatal(err)
		}
		total += len(hist) - 1 // minus the initial insert
		for _, h := range hist {
			if h.Pending {
				t.Fatalf("pending version leaked into history of k%02d", k)
			}
		}
	}
	if int64(total) != 2*commits.Load() {
		t.Fatalf("history has %d writer versions, want %d", total, 2*commits.Load())
	}
}
