package immortaldb_test

// Two end-to-end pins on the disk-fault containment policy that the
// persistence scenarios of the crash matrix (matrix_test.go) sweep: the
// fsyncgate never-retry rule and the ENOSPC escape hatch.

import (
	"errors"
	"fmt"
	"testing"

	"immortaldb"
	"immortaldb/internal/storage/vfs"
)

// openSim opens a database on fs with the small-geometry test options.
func openSim(t *testing.T, fs *vfs.SimFS) *immortaldb.DB {
	t.Helper()
	db, err := immortaldb.Open("faultdb", &immortaldb.Options{
		PageSize:       1024,
		CacheFrames:    8,
		FS:             fs,
		WALSegmentSize: 4096,
		WALLowWater:    8192,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return db
}

func set(db *immortaldb.DB, tbl *immortaldb.Table, k, v string) error {
	return db.Update(func(tx *immortaldb.Tx) error {
		return tx.Set(tbl, []byte(k), []byte(v))
	})
}

func get(t *testing.T, db *immortaldb.DB, tbl *immortaldb.Table, k string) (string, bool) {
	t.Helper()
	var val string
	var ok bool
	err := db.View(func(tx *immortaldb.Tx) error {
		v, found, err := tx.Get(tbl, []byte(k))
		val, ok = string(v), found
		return err
	})
	if err != nil {
		t.Fatalf("get %q: %v", k, err)
	}
	return val, ok
}

// TestFsyncGateNeverRetry pins the fsyncgate policy end to end: after a
// failed WAL fsync silently drops the dirty pages (as several kernels do),
// the engine must NOT retry the fsync, must not acknowledge the commit, must
// degrade so every later write fails typed before any ack, and after a crash
// and reopen the un-acked commit must be fully absent while everything acked
// before the fault survives.
func TestFsyncGateNeverRetry(t *testing.T) {
	fs := vfs.NewSim(7)
	db := openSim(t, fs)
	tbl, err := db.CreateTable("t", immortaldb.TableOptions{Immortal: true})
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := set(db, tbl, "a", "acked"); err != nil {
		t.Fatalf("baseline commit: %v", err)
	}

	fs.InjectFault(vfs.Fault{
		Op: vfs.OpSync, File: "wal.log.", Count: 1, DropDirty: true,
	})
	err = set(db, tbl, "b", "dropped")
	if err == nil {
		t.Fatal("commit acknowledged over a failed fsync")
	}
	if db.Degraded() == nil {
		t.Fatal("engine not degraded after a failed WAL fsync")
	}

	// The fault has cleared (Count: 1): a retried fsync would now "succeed"
	// without the dropped pages ever reaching disk. The engine must refuse
	// instead of retrying and trusting it.
	if err := set(db, tbl, "c", "after"); !errors.Is(err, immortaldb.ErrDegraded) {
		t.Fatalf("write after failed fsync returned %v, want ErrDegraded", err)
	}
	if v, ok := get(t, db, tbl, "a"); !ok || v != "acked" {
		t.Fatalf("read while degraded: a=%q,%v, want acked,true", v, ok)
	}
	db.Close()

	fs.Crash()
	fs.Reboot()
	db2 := openSim(t, fs)
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatalf("table after recovery: %v", err)
	}
	if v, ok := get(t, db2, tbl2, "a"); !ok || v != "acked" {
		t.Fatalf("acked commit lost: a=%q,%v", v, ok)
	}
	if _, ok := get(t, db2, tbl2, "b"); ok {
		t.Fatal("un-acked commit surfaced after recovery despite dropped fsync")
	}
	if _, ok := get(t, db2, tbl2, "c"); ok {
		t.Fatal("write refused with ErrDegraded still reached disk")
	}
	if err := set(db2, tbl2, "sentinel", "alive"); err != nil {
		t.Fatalf("recovered engine refused a commit: %v", err)
	}
}

// TestENOSPCEscape fills a small disk with WAL until the engine degrades
// with ENOSPC, then proves the escape hatch: reopening runs recovery plus a
// checkpoint whose record is exempt from the low-water gate, which moves the
// reclamation bound, truncates the dead segments, and leaves the engine
// committing again on the very same (still small) disk.
func TestENOSPCEscape(t *testing.T) {
	fs := vfs.NewSim(11)
	// The low-water mark is the escape's enabler: degradation fires while
	// there is still headroom for reopen-time recovery (which re-stamps and
	// so grows the PTT) plus the exempted checkpoint record.
	openSmall := func() *immortaldb.DB {
		db, err := immortaldb.Open("faultdb", &immortaldb.Options{
			PageSize:       1024,
			CacheFrames:    8,
			FS:             fs,
			WALSegmentSize: 4096,
			WALLowWater:    96 << 10,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	fs.SetCapacity(256 << 10)
	db := openSmall()
	tbl, err := db.CreateTable("t", immortaldb.TableOptions{Immortal: true})
	if err != nil {
		t.Fatalf("create table: %v", err)
	}

	// Overwrite a small key set so the page file stays put while the WAL
	// grows without bound (no checkpoints here, so nothing is reclaimed).
	acked := map[string]string{}
	var commitErr error
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%02d", i%12)
		v := fmt.Sprintf("v%06d", i)
		if commitErr = set(db, tbl, k, v); commitErr != nil {
			break
		}
		acked[k] = v
	}
	if commitErr == nil {
		t.Fatal("disk never filled; capacity too large for the workload")
	}
	if !errors.Is(commitErr, vfs.ErrNoSpace) {
		t.Fatalf("fill-phase commit failed with %v, want ENOSPC", commitErr)
	}
	if db.Degraded() == nil {
		t.Fatal("engine not degraded after ENOSPC")
	}
	if err := set(db, tbl, "probe", "x"); !errors.Is(err, immortaldb.ErrDegraded) {
		t.Fatalf("write on full disk returned %v, want ErrDegraded", err)
	}
	segsBefore := db.Stats().WALSegments
	db.Close()

	// Same disk, same capacity: reopening must recover, checkpoint, truncate
	// the dead segments, and accept new commits.
	db2 := openSmall()
	defer db2.Close()
	if err := db2.Degraded(); err != nil {
		t.Fatalf("reopened engine still degraded: %v", err)
	}
	if segsAfter := db2.Stats().WALSegments; segsAfter >= segsBefore {
		t.Fatalf("truncation freed nothing: %d segments before close, %d after reopen", segsBefore, segsAfter)
	}
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatalf("table after recovery: %v", err)
	}
	for k, v := range acked {
		if got, ok := get(t, db2, tbl2, k); !ok || got != v {
			t.Fatalf("acked commit lost across ENOSPC: %s=%q,%v want %q", k, got, ok, v)
		}
	}
	for i := 0; i < 50; i++ {
		if err := set(db2, tbl2, fmt.Sprintf("k%02d", i%12), fmt.Sprintf("post%03d", i)); err != nil {
			t.Fatalf("commit %d after escape failed: %v", i, err)
		}
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after escape: %v", err)
	}
}
