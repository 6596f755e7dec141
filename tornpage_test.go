package immortaldb

import (
	"fmt"
	"strings"
	"testing"

	"immortaldb/internal/storage/vfs"
)

// TestDefaultOptionsSurviveTornCheckpointWrites crashes a database opened
// with default options (8 KB pages) at each page write of a checkpoint. The
// simulated disk keeps or loses each 512-byte sector of an unsynced write
// independently, so the crash tears the page in flight (and any earlier
// unsynced one). Every reopen must repair the damage from the logged page
// images and return every acked commit.
func TestDefaultOptionsSurviveTornCheckpointWrites(t *testing.T) {
	const seed = 7
	// run commits 100 updates on 100 keys and checkpoints, so the pages are
	// on disk whole; then it updates 10 keys in place and checkpoints again
	// with a crash armed at mutation crashAt (0: never). Redo of those 10
	// updates reads pages the second checkpoint tore. It returns the acked
	// state and the indexes of the second checkpoint's page writes.
	run := func(fs *vfs.SimFS, crashAt int64) (map[string]string, []int64) {
		db, err := Open("db", &Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("acct", TableOptions{Immortal: true})
		if err != nil {
			t.Fatal(err)
		}
		acked := map[string]string{}
		for i := 0; i < 110; i++ {
			k, v := fmt.Sprintf("key-%03d", i*7%100), fmt.Sprintf("value-%04d-%s", i, strings.Repeat("v", 40))
			commitKV(t, db, tbl, k, v)
			acked[k] = v
			if i == 99 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := fs.OpCount()
		fs.SetCrashAt(crashAt)
		err = db.Checkpoint()
		var writes []int64
		for _, op := range fs.Trace() {
			if op.Index > before && op.Kind == "write" && op.File == "db/"+pagesFile {
				writes = append(writes, op.Index)
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
		return acked, writes
	}
	_, writes := run(vfs.NewSim(seed), 0)
	if len(writes) < 2 {
		t.Fatalf("checkpoint wrote %d pages, want several", len(writes))
	}
	for _, at := range writes {
		fs := vfs.NewSim(seed)
		acked, _ := run(fs, at)
		if !fs.Crashed() {
			t.Fatalf("crash at mutation %d: no crash", at)
		}
		fs.Reboot()
		db, err := Open("db", &Options{FS: fs})
		if err != nil {
			t.Fatalf("crash at mutation %d: reopen: %v", at, err)
		}
		tbl, err := db.Table("acct")
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range acked {
			var got []byte
			if err := db.View(func(tx *Tx) error {
				v, _, err := tx.Get(tbl, []byte(k))
				got = v
				return err
			}); err != nil {
				t.Fatalf("crash at mutation %d: get %s: %v", at, k, err)
			}
			if string(got) != want {
				t.Fatalf("crash at mutation %d: %s = %q, want %q", at, k, got, want)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
