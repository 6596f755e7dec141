package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"immortaldb/internal/storage/page"
	"immortaldb/internal/storage/vfs"
)

func openTemp(t *testing.T, pageSize int) (*Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.pages")
	p, err := Open(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, path
}

func mkPage(p *Pager, fill byte) []byte {
	buf := make([]byte, p.PageSize())
	buf[page.TypeOff] = byte(page.TypeBlob)
	for i := page.PayloadOff; i < len(buf); i++ {
		buf[i] = fill
	}
	return buf
}

func TestAllocateWriteRead(t *testing.T) {
	p, _ := openTemp(t, 512)
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("allocated the meta page")
	}
	in := mkPage(p, 0xAB)
	if err := p.WritePage(id, in); err != nil {
		t.Fatal(err)
	}
	out, err := p.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in[4:], out[4:]) {
		t.Fatal("read back different bytes")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	p, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	if err := p.WritePage(id, mkPage(p, 0x7)); err != nil {
		t.Fatal(err)
	}
	if err := p.SetMeta([]byte("hello-meta")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PageSize() != 512 {
		t.Fatalf("page size = %d", q.PageSize())
	}
	if got := q.GetMeta(); string(got) != "hello-meta" {
		t.Fatalf("meta = %q", got)
	}
	out, err := q.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if out[page.PayloadOff] != 0x7 {
		t.Fatal("page content lost")
	}
	if _, err := Open(path, 1024); err == nil {
		t.Fatal("mismatched page size accepted")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	p, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	if err := p.WritePage(id, mkPage(p, 1)); err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Flip one byte in the page body.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(id)*512 + 100
	f.WriteAt([]byte{0xFF}, off)
	f.Close()

	q, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.ReadPage(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestFreeListReuse(t *testing.T) {
	p, _ := openTemp(t, 512)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	c, _ := p.Allocate()
	for _, id := range []page.ID{a, b, c} {
		if err := p.WritePage(id, mkPage(p, byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	n := p.NumPages()
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse: a then b, without extending the file.
	got1, _ := p.Allocate()
	got2, _ := p.Allocate()
	if got1 != a || got2 != b {
		t.Fatalf("reuse order = %d,%d want %d,%d", got1, got2, a, b)
	}
	if p.NumPages() != n {
		t.Fatalf("file grew during reuse: %d -> %d", n, p.NumPages())
	}
	got3, _ := p.Allocate()
	if got3 != page.ID(n) {
		t.Fatalf("exhausted free list should extend: got %d want %d", got3, n)
	}
}

func TestFreeListSurvivesSyncAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	p, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Allocate()
	if err := p.WritePage(a, mkPage(p, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	p.Close() // close persists meta incl. free head

	q, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	got, err := q.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("freed page not reused after reopen: got %d want %d", got, a)
	}
}

// TestStaleFreeListHeadAfterCrash: the free-list head is persisted only at
// Sync, unordered against the pages it names, so a crash can leave it
// pointing at a page that was reallocated and rewritten since, or at one
// whose file growth was lost. The next allocation must drop the stale list
// and extend the file, never fail or hand a live page out again.
func TestStaleFreeListHeadAfterCrash(t *testing.T) {
	for name, lose := range map[string]func(p *Pager, a page.ID) error{
		"reallocated": func(p *Pager, a page.ID) error {
			if got, _ := p.Allocate(); got != a {
				return fmt.Errorf("reuse: got %d want %d", got, a)
			}
			return p.WritePage(a, mkPage(p, 2))
		},
		"growth lost": func(p *Pager, a page.ID) error {
			return p.f.Truncate(int64(a) * int64(p.pageSize))
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewSim(1)
			p, err := OpenFS(fs, "db.pages", 512)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := p.Allocate()
			if err := p.WritePage(a, mkPage(p, 1)); err != nil {
				t.Fatal(err)
			}
			if err := p.Free(a); err != nil {
				t.Fatal(err)
			}
			if err := p.Sync(); err != nil { // durable head = a
				t.Fatal(err)
			}
			if err := lose(p, a); err != nil {
				t.Fatal(err)
			}
			if err := p.f.Sync(); err != nil { // the file is durable, the new head is not
				t.Fatal(err)
			}
			fs.Crash()
			fs.Reboot()

			q, err := OpenFS(fs, "db.pages", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			n := q.NumPages()
			got, err := q.Allocate()
			if err != nil {
				t.Fatalf("allocation over a stale free-list head: %v", err)
			}
			if got != page.ID(n) {
				t.Fatalf("allocated %d, want a fresh page %d", got, n)
			}
		})
	}
}

func TestErrors(t *testing.T) {
	p, _ := openTemp(t, 512)
	if _, err := p.ReadPage(99); !errors.Is(err, ErrOutOfFile) {
		t.Fatalf("read past end: %v", err)
	}
	if err := p.WritePage(99, make([]byte, 512)); !errors.Is(err, ErrOutOfFile) {
		t.Fatalf("write past end: %v", err)
	}
	id, _ := p.Allocate()
	if err := p.WritePage(id, make([]byte, 100)); err == nil {
		t.Fatal("short write accepted")
	}
	if err := p.Free(0); err == nil {
		t.Fatal("freeing meta page accepted")
	}
	p.Close()
	if _, err := p.Allocate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("use after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestMetaCapacityEnforced(t *testing.T) {
	p, _ := openTemp(t, 512)
	if err := p.SetMeta(make([]byte, p.MetaCapacity())); err != nil {
		t.Fatalf("max-size meta rejected: %v", err)
	}
	if err := p.SetMeta(make([]byte, p.MetaCapacity()+1)); err == nil {
		t.Fatal("oversized meta accepted")
	}
	// Failed SetMeta must not clobber the old meta.
	if got := len(p.GetMeta()); got != p.MetaCapacity() {
		t.Fatalf("meta after failed set = %d bytes", got)
	}
}

func TestStatsCount(t *testing.T) {
	p, _ := openTemp(t, 512)
	id, _ := p.Allocate()
	_ = p.WritePage(id, mkPage(p, 1))
	_, _ = p.ReadPage(id)
	_ = p.Sync()
	r, w, s := p.Stats()
	if r != 1 || w < 2 || s != 1 { // writes: meta(on create) + page (+ sync meta)
		t.Fatalf("stats = %d reads %d writes %d syncs", r, w, s)
	}
}
