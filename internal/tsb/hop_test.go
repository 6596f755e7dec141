package tsb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"immortaldb/internal/buffer"
	"immortaldb/internal/itime"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
)

// TestChainWalksDecodeOnlyTheCoveringPage builds deep history chains and
// reads them through a pool of 8 frames and through one that holds every
// page. A chain walk reads only the header of each page it passes, so both
// give the same answers after the same hops, and the small pool misses only
// on the page a read stops at and, now and then, on the pages above it —
// not once per hop.
func TestChainWalksDecodeOnlyTheCoveringPage(t *testing.T) {
	const pageSize, keys, writes = 512, 24, 3000
	path := filepath.Join(t.TempDir(), "db.pages")
	h := newHarnessAt(t, path, ModeChain, pageSize, true)
	type write struct {
		ts       itime.Timestamp
		key, val string
	}
	var log []write
	for i := 0; i < writes; i++ {
		k, v := fmt.Sprintf("key-%02d", (i*7+i/keys)%keys), fmt.Sprintf("v%d", i)
		log = append(log, write{h.write(k, v, false), k, v})
	}
	// Stamp the current pages, so reads dirty nothing, then put every page
	// on disk for the trees below to read.
	for k := 0; k < keys; k++ {
		h.read(fmt.Sprintf("key-%02d", k), itime.Max)
	}
	if err := h.tree.cfg.Pool.FlushAll(false); err != nil {
		t.Fatal(err)
	}
	root, rootIsLeaf := h.tree.Root()
	reopen := func(frames int) (*Tree, *buffer.Pool) {
		cfg := h.tree.cfg
		cfg.Pool = buffer.New(h.tree.cfg.Pager, frames)
		return Open(cfg, root, rootIsLeaf), cfg.Pool
	}
	small, smallPool := reopen(8)
	big, _ := reopen(4096)

	asOf := func(key string, ts itime.Timestamp) string {
		want := ""
		for _, w := range log {
			if w.key == key && !w.ts.After(ts) {
				want = w.val
			}
		}
		return want
	}
	read := func(tree *Tree, key string, ts itime.Timestamp) string {
		r, err := tree.ReadKey([]byte(key), ts, 0)
		if err != nil {
			t.Fatalf("read %s as of %v: %v", key, ts, err)
		}
		return string(r.Value)
	}
	_, misses0, _, _ := smallPool.Stats()
	reads := 0
	for i, w := range log {
		for _, k := range []string{w.key, fmt.Sprintf("key-%02d", i%keys)} {
			got := read(small, k, w.ts)
			if want := asOf(k, w.ts); got != want || read(big, k, w.ts) != want {
				t.Fatalf("%s as of %v: small pool %q, large pool %q, want %q", k, w.ts, got, read(big, k, w.ts), want)
			}
			reads++
		}
	}
	_, misses, _, _ := smallPool.Stats()
	perRead := float64(misses-misses0) / float64(reads)
	hops := small.Snapshot().ChainHops
	t.Logf("%d reads: %.0f chain hops and %.2f small-pool misses per read", reads, float64(hops)/float64(reads), perRead)
	if hops != big.Snapshot().ChainHops || hops < uint64(reads) {
		t.Fatalf("chain hops: small pool %d, large pool %d, over %d reads", hops, big.Snapshot().ChainHops, reads)
	}
	if perRead > 2 {
		t.Fatalf("%.2f pool misses per read through 8 frames, want <= 2", perRead)
	}

	// Scans walk the same chains.
	for i := 0; i < len(log); i += 97 {
		var rows [2][]Result
		for j, tree := range []*Tree{small, big} {
			if err := tree.ScanAsOf(nil, nil, log[i].ts, 0, func(r Result) bool {
				rows[j] = append(rows[j], r)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(rows[0], rows[1]) {
			t.Fatalf("scan as of %v differs between the pools", log[i].ts)
		}
		for _, r := range rows[0] {
			if want := asOf(string(r.Key), log[i].ts); string(r.Value) != want {
				t.Fatalf("scan as of %v: %s = %q, want %q", log[i].ts, r.Key, r.Value, want)
			}
		}
	}
	if hops := small.Snapshot().ChainHops; hops != big.Snapshot().ChainHops {
		t.Fatalf("chain hops after scans: small pool %d, large pool %d", hops, big.Snapshot().ChainHops)
	}

	// Concurrent readers share the small pool's scratch buffer and
	// remembered headers.
	shared, _ := reopen(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(log); i += 7 {
				w := log[i]
				r, err := shared.ReadKey([]byte(w.key), w.ts, 0)
				if err != nil || string(r.Value) != w.val {
					t.Errorf("concurrent read of %s as of %v: (%q, %v), want %q", w.key, w.ts, r.Value, err, w.val)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// A history page the walk only passes through is still checksummed:
	// flip one byte of it on disk and the read through it fails.
	cur, err := h.tree.cfg.Pool.Fetch(root)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Index() != nil {
		child := cur.Index().Entries[0].Child
		h.tree.cfg.Pool.Release(cur)
		if cur, err = h.tree.cfg.Pool.Fetch(child); err != nil {
			t.Fatal(err)
		}
	}
	key := cur.Data().Recs[cur.Data().Slots[0]].Key
	chain := []page.ID{cur.ID()}
	var starts []itime.Timestamp
	for id := cur.Data().Hist; id != 0 && len(chain) < 4; {
		f, err := h.tree.cfg.Pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		chain, starts = append(chain, id), append(starts, f.Data().StartTS)
		id = f.Data().Hist
		h.tree.cfg.Pool.Release(f)
	}
	h.tree.cfg.Pool.Release(cur)
	if len(chain) < 4 {
		t.Fatalf("chain of %q has %d pages, want 4", key, len(chain))
	}
	// Corrupt chain[2], a page between the current page and chain[3], the
	// page covering the read.
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(chain[2])*pageSize + pageSize/2
	b := make([]byte, 1)
	if _, err := file.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := file.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	victim, _ := reopen(8)
	if _, err := victim.ReadKey(key, starts[2], 0); !errors.Is(err, disk.ErrChecksum) {
		t.Fatalf("read through a corrupt history page: %v, want %v", err, disk.ErrChecksum)
	}
	err = victim.ScanAsOf(nil, nil, starts[2], 0, func(Result) bool { return true })
	if !errors.Is(err, disk.ErrChecksum) {
		t.Fatalf("scan through a corrupt history page: %v, want %v", err, disk.ErrChecksum)
	}
}
