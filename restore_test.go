package immortaldb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/vfs"
)

// TestRestoreAsOfAgreesWithAsOf pins that the two roads to the past agree:
// a RestoreAsOf clone cut at any commit's timestamp holds exactly the state
// an AS OF scan of the source reads at that timestamp. Segments of 4 KB put
// most of the 40 commits past the first rotation, where a sealed segment's
// preallocated zero tail must not be taken for the end of the log.
func TestRestoreAsOfAgreesWithAsOf(t *testing.T) {
	for _, every := range []int{0, 13} {
		t.Run(fmt.Sprintf("checkpoint-every-%d", every), func(t *testing.T) {
			srcDir := t.TempDir()
			opts := &Options{Clock: testClock(), PageSize: 1024, CacheFrames: 16, RetainWAL: true, WALSegmentSize: 4096}
			src, err := Open(srcDir, opts)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := src.CreateTable("acct", TableOptions{Immortal: true})
			if err != nil {
				t.Fatal(err)
			}
			var marks []Timestamp
			var wants []map[string]string
			for i := 0; i < 40; i++ {
				marks = append(marks, commitKV(t, src, tbl, fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i)))
				if every > 0 && i%every == every-1 {
					if err := src.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, m := range marks {
				wants = append(wants, stateAsOf(t, src, tbl, m))
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			for i, m := range marks {
				dstDir := filepath.Join(t.TempDir(), "clone")
				if err := RestoreAsOf(srcDir, dstDir, m, opts); err != nil {
					t.Fatalf("mark %d: RestoreAsOf: %v", i, err)
				}
				clone, err := Open(dstDir, opts)
				if err != nil {
					t.Fatalf("mark %d: open clone: %v", i, err)
				}
				ctbl, err := clone.Table("acct")
				if err != nil {
					t.Fatal(err)
				}
				got := stateAsOf(t, clone, ctbl, clone.Now())
				clone.Close()
				if fmt.Sprint(got) != fmt.Sprint(wants[i]) {
					t.Errorf("mark %d: restored state %v, AS OF scan of the source %v", i, got, wants[i])
				}
			}
		})
	}
}

// TestRestoreNeverChangesItsSource pins the read-only contract of restore's
// chain readers: restoring from a crashed source whose last segment ends in
// a torn record stops at the tail, and leaves every source file
// byte-identical — no torn tail trimmed, no dead segment deleted, no
// control slot rewritten.
func TestRestoreNeverChangesItsSource(t *testing.T) {
	opts := func(fs *vfs.SimFS) *Options {
		return &Options{FS: fs, Clock: testClock(), PageSize: 4096, CacheFrames: 16, RetainWAL: true, WALSegmentSize: 4096}
	}
	big := strings.Repeat("x", 1500)
	// build runs 30 acked commits, then one more with a 1.5 KB value, armed
	// to crash at mutation crashAt (0: never). It returns the acked state
	// and the index of the write that carries the last commit's records.
	build := func(fs *vfs.SimFS, crashAt int64) (map[string]string, int64) {
		db, err := Open("src", opts(fs))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("acct", TableOptions{Immortal: true})
		if err != nil {
			t.Fatal(err)
		}
		acked := map[string]string{}
		for i := 0; i < 30; i++ {
			k, v := fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i)
			commitKV(t, db, tbl, k, v)
			acked[k] = v
		}
		before := fs.OpCount()
		fs.SetCrashAt(crashAt)
		err = db.Update(func(tx *Tx) error { return tx.Set(tbl, []byte("big"), []byte(big)) })
		var walWrite int64
		for _, op := range fs.Trace() {
			if op.Index > before && op.Kind == "write" && op.Len > int64(len(big)) && strings.HasPrefix(op.File, "src/wal.log.") {
				walWrite = op.Index
				break
			}
		}
		if crashAt == 0 {
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return acked, walWrite
	}
	// On seed 3 the reboot keeps some sectors of that write and loses
	// others, so the record is torn: present in part, undecodable.
	_, crashAt := build(vfs.NewSim(3), 0)
	fs := vfs.NewSim(3)
	acked, _ := build(fs, crashAt)
	if !fs.Crashed() {
		t.Fatalf("no crash at mutation %d", crashAt)
	}
	fs.Reboot()

	snapshot := func() map[string][]byte {
		names, err := fs.List("src/")
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range names {
			f, err := fs.OpenFile(name)
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, size)
			if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			files[name] = b
		}
		return files
	}
	before := snapshot()
	torn := false
	for name, b := range before {
		if strings.HasPrefix(name, "src/wal.log.") && bytes.Contains(b, []byte(big[:64])) {
			torn = true
		}
	}
	if !torn {
		t.Fatal("no part of the crashed commit reached the log: the source has no torn tail")
	}

	if err := RestoreAsOf("src", "dst", itime.Max, opts(fs)); err != nil {
		t.Fatalf("RestoreAsOf: %v", err)
	}
	clone, err := Open("dst", opts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	ctbl, err := clone.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := stateAsOf(t, clone, ctbl, clone.Now()); fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatalf("restored state %v, want the acked commits %v", got, acked)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("source files %d before restore, %d after", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("restore changed source file %s", name)
		}
	}
}

// listFailFS is an FS whose List fails for names under prefix.
type listFailFS struct {
	vfs.FS
	prefix string
	err    error
}

func (f listFailFS) List(prefix string) ([]string, error) {
	if strings.HasPrefix(prefix, f.prefix) {
		return nil, f.err
	}
	return f.FS.List(prefix)
}

// TestRestoreAsOfRefusesDestination checks that a restore writes nothing
// into a destination it cannot prove empty: one that holds a file, or one
// whose listing fails.
func TestRestoreAsOfRefusesDestination(t *testing.T) {
	errList := errors.New("list: permission denied")
	for _, tc := range []struct {
		name    string
		fs      func(*vfs.SimFS) vfs.FS
		junk    bool  // dst holds a file before the restore
		wantErr error // nil: any error
	}{
		{"not-empty", func(s *vfs.SimFS) vfs.FS { return s }, true, nil},
		{"list-fails", func(s *vfs.SimFS) vfs.FS { return listFailFS{s, "dst", errList} }, false, errList},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vfs.NewSim(1)
			opts := &Options{FS: sim, Clock: testClock(), PageSize: 1024, CacheFrames: 16, RetainWAL: true}
			src, err := Open("src", opts)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := src.CreateTable("acct", TableOptions{Immortal: true})
			if err != nil {
				t.Fatal(err)
			}
			commitKV(t, src, tbl, "k", "v")
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.junk {
				f, err := sim.OpenFile("dst/junk")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte("x"), 0); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			before, _ := sim.List("dst/")

			restoreOpts := *opts
			restoreOpts.FS = tc.fs(sim)
			err = RestoreAsOf("src", "dst", itime.Max, &restoreOpts)
			if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("RestoreAsOf = %v, want an error wrapping %v", err, tc.wantErr)
			}
			if after, _ := sim.List("dst/"); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("refused restore changed the destination: %v before, %v after", before, after)
			}
		})
	}
}

func TestExportAsOf(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   vfs.FS // nil: the real disk
	}{{"os", nil}, {"sim", vfs.NewSim(1)}} {
		t.Run(tc.name, func(t *testing.T) {
			onFS := func(o *Options) { o.FS = tc.fs }
			db, _ := openTestDB(t, onFS)
			tbl, _ := db.CreateTable("inventory", TableOptions{Immortal: true})
			db.CreateTable("scratch", TableOptions{}) // conventional: not exported
			for i := 0; i < 30; i++ {
				set(t, db, tbl, fmt.Sprintf("item%02d", i), "stocked")
			}
			cut := db.Now()
			for i := 0; i < 30; i += 2 {
				del(t, db, tbl, fmt.Sprintf("item%02d", i))
			}
			set(t, db, tbl, "item01", "restocked")

			exportDir := t.TempDir()
			if err := db.ExportAsOf(cut, exportDir); err != nil {
				t.Fatal(err)
			}
			if tc.fs != nil {
				// The export lands on the source's disk, not the real one.
				if entries, err := os.ReadDir(exportDir); err != nil || len(entries) != 0 {
					t.Fatalf("export of a %s database left %d entries on the OS disk (%v)", tc.name, len(entries), err)
				}
			}

			restored, err := Open(exportDir, testOpts(onFS))
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if got := restored.Tables(); len(got) != 1 || got[0] != "inventory" {
				t.Fatalf("restored tables = %v", got)
			}
			rtbl, _ := restored.Table("inventory")
			tx, _ := restored.Begin(Serializable)
			n := 0
			tx.Scan(rtbl, nil, nil, func(k, v []byte) bool {
				if string(v) != "stocked" {
					t.Fatalf("%s = %q in the restore", k, v)
				}
				n++
				return true
			})
			tx.Commit()
			if n != 30 {
				t.Fatalf("restore has %d items, want 30 (the pre-deletion state)", n)
			}
			// The restore is a live, writable database.
			if err := restored.Update(func(tx *Tx) error {
				return tx.Set(rtbl, []byte("item99"), []byte("new"))
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
