package buffer

import (
	"errors"
	"path/filepath"
	"testing"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
)

func newPool(t *testing.T, capacity int) (*Pool, *disk.Pager) {
	t.Helper()
	pg, err := disk.Open(filepath.Join(t.TempDir(), "db.pages"), 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	return New(pg, capacity), pg
}

// newDataFrame allocates a page and installs a fresh data page for it.
func newDataFrame(t *testing.T, p *Pool, pg *disk.Pager) *Frame {
	t.Helper()
	id, err := pg.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	dp := page.NewData(id, pg.PageSize())
	f, err := p.NewPage(id, dp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFetchCachesPages(t *testing.T) {
	p, pg := newPool(t, 8)
	f := newDataFrame(t, p, pg)
	id := f.ID()
	f.Data().LSN = 5
	if err := f.Data().Insert([]byte("k"), []byte("v"), false, 1); err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}

	f2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Data() != f.Data() {
		t.Fatal("fetch did not return the cached object")
	}
	p.Release(f2)
	hits, misses, _, _ := p.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestEvictionWritesDirtyAndRereads(t *testing.T) {
	p, pg := newPool(t, 4)
	var ids []page.ID
	for i := 0; i < 10; i++ {
		f := newDataFrame(t, p, pg)
		if err := f.Data().Insert([]byte{byte(i)}, []byte("v"), false, 1); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Release(f)
	}
	if p.Len() > 4 {
		t.Fatalf("pool grew past capacity: %d", p.Len())
	}
	// Every page must be readable with its content intact.
	for i, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if _, found := f.Data().FindSlot([]byte{byte(i)}); !found {
			t.Fatalf("page %d lost its record", id)
		}
		p.Release(f)
	}
}

func TestAllPinned(t *testing.T) {
	p, pg := newPool(t, 4)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		frames = append(frames, newDataFrame(t, p, pg))
	}
	id, _ := pg.Allocate()
	if _, err := p.NewPage(id, page.NewData(id, pg.PageSize()), 1); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("err = %v, want ErrAllPinned", err)
	}
	p.Release(frames[0])
	if _, err := p.NewPage(id, page.NewData(id, pg.PageSize()), 1); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestEvictionIsLRUWhateverDirtiness fills a pool whose LRU tail is a pinned
// frame, then a dirty one, then clean ones. The next install skips the pinned
// frame and writes and evicts the dirty one: a more recently used clean frame
// is not preferred to it.
func TestEvictionIsLRUWhateverDirtiness(t *testing.T) {
	p, pg := newPool(t, 4)
	pinned := newDataFrame(t, p, pg)
	var frames []*Frame
	for i := 0; i < 3; i++ {
		f := newDataFrame(t, p, pg)
		p.Release(f)
		frames = append(frames, f)
	}
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	lru := frames[0]
	if err := lru.Data().Insert([]byte("k"), []byte("v"), false, 1); err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(lru, 1)
	_, writes0, _ := pg.Stats()

	f := newDataFrame(t, p, pg)
	p.Release(f)
	if _, ok := p.frames[lru.ID()]; ok {
		t.Fatal("the least recently used frame stayed because it was dirty")
	}
	for _, g := range append(frames[1:], pinned) {
		if _, ok := p.frames[g.ID()]; !ok {
			t.Fatalf("page %d was evicted instead of the least recently used unpinned frame", g.ID())
		}
	}
	if _, writes, _ := pg.Stats(); writes != writes0+1 {
		t.Fatalf("eviction wrote %d pages, want 1", writes-writes0)
	}
	g, err := p.Fetch(lru.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(g)
	if _, found := g.Data().FindSlot([]byte("k")); !found {
		t.Fatal("the evicted dirty page was not written back")
	}
	p.Release(pinned)
}

// TestReadOnlyEvictsOnlyClean: a read-only pool passes over dirty frames,
// evicts clean ones without writing anything, and refuses with ErrReadOnly
// once only dirty frames are unpinned.
func TestReadOnlyEvictsOnlyClean(t *testing.T) {
	w, pg := newPool(t, 8)
	var ids []page.ID
	for i := 0; i < 7; i++ {
		f := newDataFrame(t, w, pg)
		ids = append(ids, f.ID())
		w.Release(f)
	}
	if err := w.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	p := New(pg, 4)
	fetch := func(id page.ID) *Frame {
		t.Helper()
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch page %d: %v", id, err)
		}
		return f
	}
	for i, id := range ids[:4] {
		f := fetch(id)
		if i < 2 {
			p.MarkDirty(f, 1)
		}
		p.Release(f)
	}
	p.SetReadOnly(true)
	_, writes0, _ := pg.Stats()

	// The two dirty frames at the LRU tail stay; the clean ones behind them go.
	held := []*Frame{fetch(ids[4]), fetch(ids[5])}
	for i, id := range ids[:4] {
		if _, ok := p.frames[id]; ok != (i < 2) {
			t.Fatalf("page %d cached = %v after two read-only evictions", id, ok)
		}
	}
	if _, err := p.Fetch(ids[6]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("fetch with only dirty frames unpinned: %v, want ErrReadOnly", err)
	}
	p.Release(held[0])
	p.Release(fetch(ids[6]))
	p.Release(held[1])
	if _, writes, _ := pg.Stats(); writes != writes0 {
		t.Fatalf("a read-only pool wrote %d pages", writes-writes0)
	}
	if dpt := p.DirtyPages(); len(dpt) != 2 {
		t.Fatalf("dirty pages = %v, want the two dirty frames kept", dpt)
	}
}

// BenchmarkFetchMissDirtyPool misses on every fetch into a full pool of
// dirty frames, as a pool does under a stream of updates that touch more
// pages than it holds. Each fetched page is dirtied, so the pool stays that
// way: every miss writes its victim, and no miss may need to search the LRU
// for it.
func BenchmarkFetchMissDirtyPool(b *testing.B) {
	const frames = 1024
	pg, err := disk.Open(filepath.Join(b.TempDir(), "db.pages"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer pg.Close()
	w := New(pg, 2*frames)
	ids := make([]page.ID, 2*frames)
	for i := range ids {
		id, err := pg.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		f, err := w.NewPage(id, page.NewData(id, pg.PageSize()), 1)
		if err != nil {
			b.Fatal(err)
		}
		w.Release(f)
		ids[i] = id
	}
	if err := w.FlushAll(false); err != nil {
		b.Fatal(err)
	}
	p := New(pg, frames)
	touch := func(i int) {
		f, err := p.Fetch(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		p.MarkDirty(f, 1)
		p.Release(f)
	}
	for i := 0; i < frames; i++ {
		touch(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touch(frames + i)
	}
	b.StopTimer()
	if _, misses, _, _ := p.Stats(); misses != uint64(frames+b.N) {
		b.Fatalf("%d misses in %d fetches", misses, frames+b.N)
	}
}

func TestPreFlushHookStampsBeforeWrite(t *testing.T) {
	p, pg := newPool(t, 4)
	f := newDataFrame(t, p, pg)
	id := f.ID()
	if err := f.Data().Insert([]byte("k"), []byte("v"), false, 42); err != nil {
		t.Fatal(err)
	}
	p.Release(f)

	stampCalls := 0
	p.PreFlush = func(pgAny any) {
		stampCalls++
		if dp, ok := pgAny.(*page.DataPage); ok {
			dp.StampAll(func(tid itime.TID) (itime.Timestamp, bool) {
				return itime.Timestamp{Wall: 9}, tid == 42
			})
		}
	}
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	if stampCalls != 1 {
		t.Fatalf("PreFlush ran %d times", stampCalls)
	}
	// Drop the cache and re-read: the stamp must be on disk.
	if err := p.Drop(id); err != nil {
		t.Fatal(err)
	}
	f2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(f2)
	s, _ := f2.Data().FindSlot([]byte("k"))
	if v := f2.Data().Latest(s); !v.Stamped || v.TS.Wall != 9 {
		t.Fatalf("stamp not persisted: %+v", v)
	}
}

func TestFlushLSNRespectsWALRule(t *testing.T) {
	p, pg := newPool(t, 4)
	f := newDataFrame(t, p, pg)
	f.Data().LSN = 77
	p.Release(f)

	var asked []uint64
	p.FlushLSN = func(lsn uint64) error {
		asked = append(asked, lsn)
		return nil
	}
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 1 || asked[0] != 77 {
		t.Fatalf("FlushLSN calls = %v", asked)
	}
	// A failing WAL flush must abort the page write.
	f2, _ := p.Fetch(f.ID())
	f2.Data().LSN = 99
	p.MarkDirty(f2, 99)
	p.Release(f2)
	p.FlushLSN = func(uint64) error { return errors.New("boom") }
	if err := p.FlushAll(false); err == nil {
		t.Fatal("flush with failing WAL must error")
	}
}

func TestDirtyPagesTable(t *testing.T) {
	p, pg := newPool(t, 8)
	f1 := newDataFrame(t, p, pg)
	f2 := newDataFrame(t, p, pg)
	p.Release(f1)
	p.Release(f2)
	dpt := p.DirtyPages()
	if len(dpt) != 2 {
		t.Fatalf("dpt = %v", dpt)
	}
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	if len(p.DirtyPages()) != 0 {
		t.Fatal("dpt not empty after flush")
	}
	// Re-dirty: RecLSN is the first dirtying LSN, not later ones.
	f, _ := p.Fetch(f1.ID())
	p.MarkDirty(f, 100)
	p.MarkDirty(f, 200)
	p.Release(f)
	dpt = p.DirtyPages()
	if dpt[f1.ID()] != 100 {
		t.Fatalf("recLSN = %d, want 100", dpt[f1.ID()])
	}
}

func TestDropPinned(t *testing.T) {
	p, pg := newPool(t, 4)
	f := newDataFrame(t, p, pg)
	if err := p.Drop(f.ID()); err == nil {
		t.Fatal("dropping a pinned page must fail")
	}
	p.Release(f)
	if err := p.Drop(f.ID()); err != nil {
		t.Fatal(err)
	}
	if err := p.Drop(f.ID()); err != nil {
		t.Fatal("dropping an absent page must be a no-op")
	}
}

func TestWithRunsAndReleases(t *testing.T) {
	p, pg := newPool(t, 4)
	f := newDataFrame(t, p, pg)
	id := f.ID()
	p.Release(f)
	err := p.With(id, func(pgAny any) error {
		if pgAny.(*page.DataPage).ID != id {
			t.Fatal("wrong page")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All pins released: page can be dropped.
	if err := p.Drop(id); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	p, pg := newPool(t, 4)
	f := newDataFrame(t, p, pg)
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release(f)
}

// TestHopReadsHeadersAndInstallsOnlyTheStop walks a six-page chain through
// a cold pool: the pages passed through are read once each for their header
// and never cached as frames, the page the walk stops at is read once,
// decoded from those bytes and cached pinned, and a second walk reads
// nothing.
func TestHopReadsHeadersAndInstallsOnlyTheStop(t *testing.T) {
	p, pg := newPool(t, 8)
	var prev page.ID
	for i := 0; i < 6; i++ {
		f := newDataFrame(t, p, pg)
		dp := f.Data()
		dp.StartTS, dp.Hist = itime.Timestamp{Wall: int64(10 * i)}, prev
		prev = f.ID()
		p.Release(f)
	}
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	cold := New(pg, 8)
	stop := func(startTS itime.Timestamp) bool { return startTS.Wall <= 15 }
	walk := func() (hops int, at page.ID, reads uint64) {
		reads0, _, _ := pg.Stats()
		var f *Frame
		for id := prev; f == nil; hops++ {
			var err error
			if id, f, err = cold.Hop(id, stop); err != nil {
				t.Fatal(err)
			}
		}
		cold.Release(f)
		reads1, _, _ := pg.Stats()
		return hops, f.ID(), reads1 - reads0
	}

	if hops, at, reads := walk(); hops != 5 || at != prev-4 || reads != 5 {
		t.Fatalf("cold walk: stopped at page %d after %d hops and %d pager reads, want %d, 5, 5", at, hops, reads, prev-4)
	}
	if hits, misses, _, _ := cold.Stats(); hits != 0 || misses != 1 || cold.Len() != 1 {
		t.Fatalf("cold walk: hits=%d misses=%d cached=%d, want 0, 1, 1", hits, misses, cold.Len())
	}
	if hops, at, reads := walk(); hops != 5 || at != prev-4 || reads != 0 {
		t.Fatalf("second walk: stopped at page %d after %d hops and %d pager reads, want %d, 5, 0", at, hops, reads, prev-4)
	}

	// A page the walk passes that is cached as a frame answers from it and
	// stays unpinned; installing it forgets its remembered header.
	g, err := cold.Fetch(prev - 2)
	if err != nil {
		t.Fatal(err)
	}
	cold.Release(g)
	if _, ok := cold.heads[prev-2]; ok {
		t.Fatal("installing a page kept its remembered header")
	}
	if hops, _, _ := walk(); hops != 5 {
		t.Fatalf("third walk took %d hops", hops)
	}
	if err := cold.Drop(prev - 2); err != nil {
		t.Fatalf("a page the walk passed through stayed pinned: %v", err)
	}

	// Redo writes a page around the pool after a Drop, which forgets the
	// remembered header: the walk sees the new split time.
	img, err := pg.ReadPage(prev - 1)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := page.UnmarshalData(img)
	if err != nil {
		t.Fatal(err)
	}
	dp.StartTS = itime.Timestamp{Wall: 5}
	buf := make([]byte, pg.PageSize())
	if err := dp.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if err := cold.Drop(prev - 1); err != nil {
		t.Fatal(err)
	}
	if err := pg.WritePage(prev-1, buf); err != nil {
		t.Fatal(err)
	}
	if hops, at, _ := walk(); hops != 2 || at != prev-1 {
		t.Fatalf("walk after a rewrite stopped at page %d after %d hops, want %d after 2", at, hops, prev-1)
	}
}

func TestHopRejectsNonDataPages(t *testing.T) {
	p, pg := newPool(t, 4)
	id, err := pg.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.NewPage(id, page.NewIndex(id, pg.PageSize(), 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	never := func(itime.Timestamp) bool { return false }
	if _, _, err := p.Hop(id, never); err == nil {
		t.Fatal("hop to a cached index page succeeded")
	}
	if err := p.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(pg, 4).Hop(id, never); !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("hop to an index page on disk: %v, want ErrCorrupt", err)
	}
}
