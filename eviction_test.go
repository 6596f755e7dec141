package immortaldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestUpdatesKeepIndexPagesResident runs uniform single-row updates over a
// table whose current pages fit the pool but whose current plus history pages
// do not. After a checkpoint every page is clean; the updates then dirty the
// data pages and time splits add dirty history pages nobody touches again,
// while the index pages stay clean and hot. Strict LRU write-back lets the
// cold history pages go; an eviction that preferred clean frames threw out an
// index page on nearly every update and missed on it at the next descent.
func TestUpdatesKeepIndexPagesResident(t *testing.T) {
	const (
		rows    = 25000
		warmup  = 5000
		updates = 40000
	)
	db, _ := openTestDB(t, func(o *Options) {
		o.PageSize = 8192
		o.CacheFrames = 256
	})
	tbl, err := db.CreateTable("t", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	key := func(k int) []byte { return []byte(fmt.Sprintf("k%06d", k)) }
	for lo := 0; lo < rows; lo += 1000 {
		err := db.Update(func(tx *Tx) error {
			for k := lo; k < lo+1000; k++ {
				if err := tx.Set(tbl, key(k), []byte(fmt.Sprintf("v%08d", 0))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	u, err := db.TableUtilization(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	update := func(n int) {
		for i := 0; i < n; i++ {
			k := rng.Intn(rows)
			err := db.Update(func(tx *Tx) error { return tx.Set(tbl, key(k), []byte(fmt.Sprintf("v%08d", i))) })
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	update(warmup)
	before := db.Stats()
	update(updates)
	after := db.Stats()

	perUpdate := float64(after.CacheMisses-before.CacheMisses) / updates
	t.Logf("%d current pages, %d time splits: %.4f pool misses per update (%d misses in %d updates)",
		u.CurrentPages, after.TimeSplits, perUpdate, after.CacheMisses-before.CacheMisses, updates)
	if perUpdate > 0.05 {
		t.Fatalf("%.4f pool misses per update, want at most 0.05: the pool evicts pages it is about to need", perUpdate)
	}
}
